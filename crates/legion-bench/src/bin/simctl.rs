//! `simctl` — run ad-hoc Legion-vs-baseline comparisons from a JSON
//! config, the way an operator would size a deployment.
//!
//! ```bash
//! cargo run --release -p legion-bench --bin simctl -- '{"dataset":"PA","divisor":2000,"server":"dgx-v100","systems":["DGL","Legion"],"batch_size":256}'
//! # Or from a file:
//! cargo run --release -p legion-bench --bin simctl -- @config.json
//! ```
//!
//! Omitted fields fall back to defaults; run with no arguments for a demo
//! configuration.

use serde::Deserialize;

use legion_baselines::{dgl, gnnlab, pagraph, quiver};
use legion_core::{legion_setup_with_plans, run_epoch, scaled_server, LegionConfig};
use legion_hw::ServerSpec;

#[derive(Debug, Deserialize)]
#[serde(default, deny_unknown_fields)]
struct Config {
    dataset: String,
    divisor: u64,
    server: String,
    systems: Vec<String>,
    batch_size: usize,
    fanouts: Vec<usize>,
    seed: u64,
    /// When true, print each system's full metric snapshot as JSON and
    /// save it under `$LEGION_RESULTS_DIR` (if set).
    dump_metrics: bool,
}

impl Default for Config {
    fn default() -> Self {
        Self {
            dataset: "PA".to_string(),
            divisor: 2000,
            server: "dgx-v100".to_string(),
            systems: vec![
                "DGL".into(),
                "PaGraph".into(),
                "GNNLab".into(),
                "Quiver".into(),
                "Legion".into(),
            ],
            batch_size: 256,
            fanouts: vec![25, 10],
            seed: 42,
            dump_metrics: false,
        }
    }
}

fn server_spec(name: &str) -> Option<ServerSpec> {
    match name.to_ascii_lowercase().as_str() {
        "dgx-v100" | "v100" => Some(ServerSpec::dgx_v100()),
        "siton" => Some(ServerSpec::siton()),
        "dgx-a100" | "a100" => Some(ServerSpec::dgx_a100()),
        _ => None,
    }
}

/// Reports a bad command line or config on one line and exits 2.
fn usage_error(error: &str) -> ! {
    eprintln!("simctl: {error}; usage: simctl [JSON | @FILE]");
    std::process::exit(2);
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let body = match args.as_slice() {
        [] => "{}".to_string(),
        [file] if file.starts_with('@') => std::fs::read_to_string(&file[1..])
            .unwrap_or_else(|e| usage_error(&format!("cannot read {}: {e}", &file[1..]))),
        [json] => json.clone(),
        [_, extra, ..] => usage_error(&format!("unexpected argument `{extra}`")),
    };
    let config: Config = serde_json::from_str(&body)
        .unwrap_or_else(|e| usage_error(&format!("invalid JSON config: {e}")));
    let Some(base) = server_spec(&config.server) else {
        usage_error(&format!(
            "unknown server '{}' (dgx-v100 | siton | dgx-a100)",
            config.server
        ))
    };
    let Some(spec) = legion_graph::dataset::spec_by_name(&config.dataset) else {
        usage_error(&format!(
            "unknown dataset '{}' (PR|PA|CO|UKS|UKL|CL)",
            config.dataset
        ))
    };
    println!(
        "simctl: {} /{}x on {} (systems: {:?})",
        config.dataset, config.divisor, base.name, config.systems
    );
    let dataset = spec.instantiate(config.divisor, config.seed);
    let scaled = scaled_server(&base, config.divisor);
    let legion_config = LegionConfig {
        fanouts: config.fanouts.clone(),
        batch_size: config.batch_size,
        seed: config.seed,
        ..Default::default()
    };
    println!(
        "{:<10} {:>12} {:>14} {:>14} {:>10}",
        "system", "epoch (s)", "PCIe txns", "max/GPU txns", "hit rate"
    );
    for system in &config.systems {
        let server = scaled.build();
        let ctx = legion_config.build_context(&dataset, &server);
        let setup = match system.as_str() {
            "DGL" => dgl::setup(&ctx),
            "PaGraph" => pagraph::setup(&ctx),
            "PaGraph-plus" => pagraph::setup_plus(&ctx),
            "GNNLab" => gnnlab::setup(&ctx, (scaled.num_gpus / 4).max(1)),
            "Quiver" => quiver::setup(&ctx),
            "Legion" => legion_setup_with_plans(&ctx, &legion_config).map(|(s, plans)| {
                println!(
                    "  [legion] auto cache plan: alpha = {:.2}, clique budget {} MiB",
                    plans[0].alpha,
                    plans[0].budget >> 20
                );
                s
            }),
            other => {
                eprintln!("unknown system '{other}', skipping");
                continue;
            }
        };
        match setup {
            Ok(s) => {
                let r = run_epoch(&s, &ctx, &legion_config);
                println!(
                    "{:<10} {:>12.5} {:>14} {:>14} {:>9.1}%",
                    system,
                    r.epoch_seconds,
                    r.pcie_total,
                    r.pcie_max_gpu,
                    r.feature_hit_rate() * 100.0
                );
                if config.dump_metrics {
                    let body =
                        serde_json::to_string_pretty(&r.metrics).expect("snapshot is serializable");
                    // Sanity: the dump must round-trip through serde.
                    let parsed: legion_telemetry::Snapshot =
                        serde_json::from_str(&body).expect("snapshot JSON round-trips");
                    assert_eq!(parsed, r.metrics, "snapshot round-trip mismatch");
                    println!("--- metrics for {system} ---");
                    println!("{body}");
                    legion_bench::save_snapshot(&format!("simctl_{system}"), &r.metrics);
                }
            }
            Err(e) => println!("{system:<10} {:>12}  ({e})", "x"),
        }
    }
}
