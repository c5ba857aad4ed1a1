//! `figures` — regenerates the tables and figures of the paper's
//! evaluation (§6) and the design ablations (DESIGN.md §5).
//!
//! ```bash
//! cargo run --release -p legion-bench --bin figures                # all, in table order
//! cargo run --release -p legion-bench --bin figures -- fig10 table03
//! ```
//!
//! Each figure prints its rows through [`print_rows`] and, with
//! `LEGION_RESULTS_DIR` set, saves them as `<stem>.json`; fig10 and
//! fig13 also save one `*.metrics.json` snapshot per system / α point.
//! `LEGION_PR_DIVISOR` / `LEGION_SMALL_DIVISOR` / `LEGION_LARGE_DIVISOR`
//! scale the datasets. An unknown name exits 2 before any figure runs.

use legion_bench::{banner, dataset_divisor, print_rows, save_json, save_snapshot};
use legion_core::experiments::{
    ablation, fig02, fig03, fig04, fig08, fig09, fig10, fig11, fig12, fig13, table03,
};
use legion_core::LegionConfig;
use serde::{Serialize, Value};

/// Fig. 11 trains real models, so it runs on a coarser PR (about 1 s).
const FIG11_DIVISOR: u64 = 1000;

/// One figure: the name that selects it, the `<stem>.json` files it
/// saves, and the function that runs and prints it from the default
/// config, returning one value per stem.
type Figure = (
    &'static str,
    &'static [&'static str],
    fn(&LegionConfig) -> Vec<Value>,
);

const FIGURES: [Figure; 11] = [
    ("fig02", &["fig02"], cache_scalability),
    ("fig03", &["fig03"], hit_rate_balance),
    ("fig04", &["fig04a", "fig04b"], pcie_payloads),
    ("fig08", &["fig08"], end_to_end),
    ("fig09", &["fig09"], partition_strategies),
    ("fig10", &["fig10"], traffic_matrices),
    ("fig11", &["fig11"], convergence),
    ("fig12", &["fig12"], topology_cache),
    ("fig13", &["fig13"], cost_model),
    ("table03", &["table03"], partitioning_cost),
    ("ablation", &ABLATION_STEMS, ablations),
];

const ABLATION_STEMS: [&str; 3] = [
    "ablation_partitioner",
    "ablation_cache_policy_5pct",
    "ablation_cache_policy_25pct",
];

/// Prints `rows` as one table and returns them for saving.
fn shown<T: Serialize>(rows: &[T]) -> Value {
    print_rows(rows);
    rows.serialize()
}

fn cache_scalability(config: &LegionConfig) -> Vec<Value> {
    banner("Figure 2: cache scalability (PR, 2-hop GraphSAGE, 5% |V| cache per GPU)");
    vec![shown(&fig02::run(dataset_divisor("PR"), config))]
}

fn hit_rate_balance(config: &LegionConfig) -> Vec<Value> {
    banner("Figure 3: per-GPU cache hit rates (PR, 5% |V| cache per GPU, 8 GPUs)");
    vec![shown(&fig03::run(dataset_divisor("PR"), config))]
}

fn pcie_payloads(config: &LegionConfig) -> Vec<Value> {
    banner("Figure 4a: PCIe 3.0 throughput under different payload sizes");
    let a = shown(&fig04::run_4a());
    banner("Figure 4b: PCIe traffic reduction vs. cache capacity (PA, single GPU)");
    vec![a, shown(&fig04::run_4b(dataset_divisor("PA"), config))]
}

fn end_to_end(config: &LegionConfig) -> Vec<Value> {
    banner("Figure 8: end-to-end epoch seconds and normalized PCIe transactions (- = OOM)");
    vec![shown(&fig08::run(&dataset_divisor, config))]
}

fn partition_strategies(config: &LegionConfig) -> Vec<Value> {
    banner("Figure 9: partition strategies vs. cache hit rate");
    vec![shown(&fig09::run(&dataset_divisor, config))]
}

/// One table per system: a row per destination GPU, a column per
/// source GPU, then the CPU column (the matrices are square in GPUs).
fn traffic_matrices(config: &LegionConfig) -> Vec<Value> {
    banner("Figure 10: feature-extraction traffic matrices (PA, DGX-V100 NV4, 2.5% cache)");
    let (mats, snapshots) = fig10::run(dataset_divisor("PA"), config);
    for m in &mats {
        println!(
            "\n[{}]  total CPU->GPU {:.3}, max per-GPU CPU column {:.3}",
            m.system, m.total_cpu, m.max_cpu_column
        );
        let sources = (0..m.rows.len()).map(|src| format!("g{src}"));
        let columns: Vec<String> = sources.chain(["CPU".to_string()]).collect();
        let rows: Vec<Value> = m
            .rows
            .iter()
            .enumerate()
            .map(|(dst, row)| {
                let cells = columns.iter().cloned().zip(row.iter().map(f64::serialize));
                let dst = ("dst".to_string(), format!("g{dst}").serialize());
                Value::Object(std::iter::once(dst).chain(cells).collect())
            })
            .collect();
        print_rows(&rows);
    }
    for (system, snap) in &snapshots {
        save_snapshot(&format!("fig10_{system}"), snap);
    }
    vec![mats.serialize()]
}

fn convergence(config: &LegionConfig) -> Vec<Value> {
    // Convergence runs real training; keep the model modest.
    let config = LegionConfig {
        hidden_dim: 64,
        batch_size: 256,
        fanouts: vec![10, 5],
        ..config.clone()
    };
    let epochs = 10;
    banner(&format!(
        "Figure 11: local vs. global shuffling convergence (PR/{FIG11_DIVISOR}x, {epochs} epochs)"
    ));
    let curves = fig11::run(FIG11_DIVISOR, &config, epochs);
    for c in &curves {
        println!("\n[{} / {} shuffling]", c.model, c.shuffle);
        print_rows(&c.points);
    }
    vec![curves.serialize()]
}

fn topology_cache(config: &LegionConfig) -> Vec<Value> {
    banner("Figure 12: impact of the topology cache (- = OOM)");
    vec![shown(&fig12::run(&dataset_divisor, config))]
}

fn cost_model(config: &LegionConfig) -> Vec<Value> {
    banner("Figure 13: cost model evaluation (PA 10GB / UKS 8GB cache)");
    let (rows, snapshots) = fig13::run(&dataset_divisor, config);
    for (label, snap) in &snapshots {
        save_snapshot(&format!("fig13_{label}"), snap);
    }
    vec![shown(&rows)]
}

fn partitioning_cost(config: &LegionConfig) -> Vec<Value> {
    banner("Table 3: partitioning cost (PA on DGX-V100, UKL on Siton)");
    let (pa, ukl) = (dataset_divisor("PA"), dataset_divisor("UKL"));
    vec![shown(&table03::run(pa, ukl, config))]
}

fn ablations(config: &LegionConfig) -> Vec<Value> {
    let pr = dataset_divisor("PR");
    banner("Ablation A: inter-clique partitioner (PR, NV2, 5% cache)");
    let mut saved = vec![shown(&ablation::partitioner_ablation(pr, config))];
    for ratio in [0.05, 0.25] {
        banner(&format!(
            "Ablation B: static vs dynamic cache policy (PR, {:.0}% capacity)",
            ratio * 100.0
        ));
        saved.push(shown(&ablation::cache_policy_ablation(pr, config, ratio)));
    }
    saved
}

fn main() {
    let names: Vec<String> = std::env::args().skip(1).collect();
    let known: Vec<&str> = FIGURES.iter().map(|&(name, ..)| name).collect();
    if let Some(unknown) = names.iter().find(|name| !known.contains(&name.as_str())) {
        eprintln!(
            "figures: unknown figure `{unknown}`; usage: figures [NAME ...], NAME one of {}",
            known.join(" ")
        );
        std::process::exit(2);
    }
    println!(
        "figures: datasets scaled PR /{}x, PA/CO/UKS /{}x, UKL/CL /{}x",
        dataset_divisor("PR"),
        dataset_divisor("PA"),
        dataset_divisor("UKL")
    );
    for (name, stems, run) in FIGURES {
        if names.is_empty() || names.iter().any(|n| n == name) {
            let saved = run(&LegionConfig::default());
            assert_eq!(saved.len(), stems.len(), "{name}");
            for (stem, value) in stems.iter().zip(&saved) {
                save_json(stem, value);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The names are the binaries this one replaced and the stems the
    /// artifacts they wrote, so no script or reader loses a file.
    #[test]
    fn names_and_stems_keep_the_old_binaries_and_artifacts() {
        let names: Vec<&str> = FIGURES.iter().map(|&(name, ..)| name).collect();
        assert_eq!(
            names.join(" "),
            "fig02 fig03 fig04 fig08 fig09 fig10 fig11 fig12 fig13 table03 ablation"
        );
        let stems: Vec<&str> = FIGURES
            .iter()
            .flat_map(|&(_, stems, _)| stems.iter().copied())
            .collect();
        assert_eq!(
            stems.join(" "),
            "fig02 fig03 fig04a fig04b fig08 fig09 fig10 fig11 fig12 fig13 table03 \
             ablation_partitioner ablation_cache_policy_5pct ablation_cache_policy_25pct"
        );
    }
}
