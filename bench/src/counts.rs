//! Per-layer counts read from a pass's own telemetry snapshots. They are
//! exact and repeat bit for bit; a layer the workload bypasses has no
//! counters, so its metrics read 0 because they were measured as 0.

use legion_hw::ServerSpec;
use legion_telemetry::Snapshot;

use crate::metrics::Outcome;

/// The telemetry of one pass.
pub struct RunView<'a> {
    /// One snapshot per simulated server.
    pub servers: Vec<&'a Snapshot>,
    /// The fleet tier's own snapshot, on a fleet run.
    pub fleet: Option<&'a Snapshot>,
    /// Seeds (training) or requests (serving) offered per pass.
    pub seeds: u64,
    /// Socket of each GPU of a server.
    pub socket_of: Vec<usize>,
}

/// Sums the counters of `snapshot` named `prefix…suffix`.
pub fn sum_counters(snapshot: &Snapshot, prefix: &str, suffix: &str) -> u64 {
    snapshot
        .counters
        .iter()
        .filter(|c| c.name.starts_with(prefix) && c.name.ends_with(suffix))
        .map(|c| c.value)
        .sum()
}

/// The socket each GPU of a `spec` server hangs off.
pub fn sockets(spec: &ServerSpec) -> Vec<usize> {
    (0..spec.num_gpus).map(|g| spec.socket_of(g)).collect()
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

impl RunView<'_> {
    /// Sums, over every server, the counters named `prefix…suffix`.
    fn sum(&self, prefix: &str, suffix: &str) -> f64 {
        self.servers
            .iter()
            .map(|s| sum_counters(s, prefix, suffix) as f64)
            .sum()
    }

    /// One named counter summed over servers.
    fn counter(&self, name: &str) -> f64 {
        self.servers.iter().map(|s| s.counter(name) as f64).sum()
    }

    /// A run-summary gauge: the fleet's on a fleet run, else the single
    /// server's.
    fn summary_gauge(&self, what: &str) -> f64 {
        match self.fleet {
            Some(f) => f.gauge(&format!("fleet.{what}")),
            None => self.servers[0].gauge(&format!("serve.{what}")),
        }
    }

    /// The `q`-quantile of the histograms named `prefix…suffix`, merged
    /// over servers.
    fn merged_quantile(&self, prefix: &str, suffix: &str, q: f64) -> f64 {
        let mut bounds: Vec<u64> = Vec::new();
        let mut counts: Vec<u64> = Vec::new();
        for h in self.servers.iter().flat_map(|s| &s.histograms) {
            if !(h.name.starts_with(prefix) && h.name.ends_with(suffix)) {
                continue;
            }
            if counts.is_empty() {
                bounds.clone_from(&h.bounds);
                counts.clone_from(&h.counts);
            } else {
                for (c, add) in counts.iter_mut().zip(&h.counts) {
                    *c += add;
                }
            }
        }
        histogram_quantile(&bounds, &counts, q)
    }

    fn max_socket_tx(&self) -> f64 {
        let sockets = self.socket_of.iter().max().map_or(1, |m| m + 1);
        let mut worst = 0u64;
        for s in &self.servers {
            let mut per_socket = vec![0u64; sockets];
            for (gpu, &socket) in self.socket_of.iter().enumerate() {
                per_socket[socket] += s.counter(&format!("pcm.gpu{gpu}.topology_tx"))
                    + s.counter(&format!("pcm.gpu{gpu}.feature_tx"));
            }
            worst = worst.max(per_socket.into_iter().max().unwrap_or(0));
        }
        worst as f64
    }

    /// Writes every count-type per-layer metric.
    pub fn record(&self, out: &mut Outcome) {
        let seeds = self.seeds as f64;
        let kseeds = seeds / 1000.0;
        let rate = |hits: f64, misses: f64| ratio(hits, hits + misses);

        out.set_exact(
            "sampling.edges_per_seed",
            ratio(self.sum("sample.gpu", ".edges"), seeds),
        );
        out.set_exact(
            "sampling.rows_per_seed",
            ratio(self.sum("extract.gpu", ".rows"), seeds),
        );
        out.set_exact(
            "cache.feature_hit_rate",
            rate(
                self.sum("cache.gpu", ".feature_hits"),
                self.sum("cache.gpu", ".feature_misses"),
            ),
        );
        out.set_exact(
            "cache.topology_hit_rate",
            rate(
                self.sum("cache.gpu", ".topology_hits"),
                self.sum("cache.gpu", ".topology_misses"),
            ),
        );
        out.set_exact(
            "hw.pcie_topology_tx_per_kseed",
            ratio(self.sum("pcm.gpu", ".topology_tx"), kseeds),
        );
        out.set_exact(
            "hw.pcie_feature_tx_per_kseed",
            ratio(self.sum("pcm.gpu", ".feature_tx"), kseeds),
        );
        out.set_exact("hw.pcie_max_socket_tx", self.max_socket_tx());
        let cpu_bytes = self.sum("traffic.dst", ".cpu_bytes");
        out.set_exact("hw.cpu_bytes_per_seed", ratio(cpu_bytes, seeds));
        out.set_exact(
            "hw.nvlink_bytes_per_seed",
            ratio(self.sum("traffic.dst", "_bytes") - cpu_bytes, seeds),
        );

        let (sample, extract, train) = (
            self.sum("stage.gpu", ".sample_ns"),
            self.sum("stage.gpu", ".extract_ns"),
            self.sum("stage.gpu", ".train_ns"),
        );
        let stages = sample + extract + train;
        out.set_exact("pipeline.sample_share", ratio(sample, stages));
        out.set_exact("pipeline.extract_share", ratio(extract, stages));
        out.set_exact("pipeline.train_share", ratio(train, stages));
        out.set_exact(
            "pipeline.queue_depth_p99",
            self.merged_quantile("pipeline.gpu", ".queue_depth", 0.99),
        );

        // legion-serve and legion-router: absent on a training pass.
        let completed = self.counter("serve.completed");
        let offered = self.counter("serve.offered");
        let shed = self.counter("serve.shed");
        let kreq = offered / 1000.0;
        out.set_exact(
            "serve.batch_size_mean",
            ratio(completed, self.sum("serve.gpu", ".batches")),
        );
        let makespan_ns = self.summary_gauge("makespan_s") * 1e9;
        let gpus = (self.socket_of.len() * self.servers.len()) as f64;
        out.set_exact(
            "serve.busy_share",
            ratio(self.sum("serve.gpu", ".busy_ns"), gpus * makespan_ns),
        );
        // Quantiles are interpolated from the latency histogram without
        // the engine's rounding to whole microseconds, so two seeds do
        // not read alike.
        for (name, q) in [
            ("serve.p50_us", 0.50),
            ("serve.p95_us", 0.95),
            ("serve.p99_us", 0.99),
        ] {
            out.set_exact(name, self.merged_quantile("serve.latency_us", "", q));
        }
        out.set_exact(
            "serve.slo_attainment",
            ratio(self.counter("serve.slo_ok"), completed),
        );
        out.set_exact("serve.shed_share", ratio(shed, offered));
        out.set_exact("serve.replan_count", self.counter("serve.replan.count"));
        out.set_exact(
            "serve.replan_swap_bytes_per_kreq",
            ratio(self.counter("serve.replan.swap_bytes"), kreq),
        );
        let spilled = self.sum("serve.route.clique", ".spilled");
        let routed = self.sum("serve.route.clique", ".routed");
        out.set_exact("router.spill_share", ratio(spilled, routed + spilled));
        out.set_exact(
            "router.locality",
            self.servers[0].gauge("serve.route.locality"),
        );

        // legion-store.
        let hits = self.counter("serve.store.prefetch_hits");
        let late = self.counter("serve.store.late_stalls");
        let cold = self.counter("serve.store.cold_reads");
        let touched = hits + late + cold;
        out.set_exact("store.prefetch_hit_share", ratio(hits, touched));
        out.set_exact("store.late_stall_share", ratio(late, touched));
        out.set_exact("store.cold_read_share", ratio(cold, touched));
        out.set_exact(
            "store.nvme_bytes_per_req",
            ratio(self.counter("store.nvme.bytes"), offered),
        );
        out.set_exact(
            "store.nvme_read_us_p99",
            self.merged_quantile("store.nvme.read_us", "", 0.99),
        );
        out.set_exact(
            "store.migrated_bytes_per_kreq",
            ratio(self.counter("serve.store.migrated_bytes"), kreq),
        );

        // legion-fleet.
        let fleet = |name: &str| self.fleet.map_or(0.0, |f| f.counter(name) as f64);
        let reads = self.counter("serve.remote.reads");
        out.set_exact(
            "fleet.locality",
            self.fleet.map_or(0.0, |f| f.gauge("fleet.locality")),
        );
        out.set_exact("fleet.replicated_rows", fleet("fleet.replicated_rows"));
        out.set_exact("fleet.remote_reads_per_kreq", ratio(reads, kreq));
        out.set_exact(
            "fleet.remote_bytes_per_req",
            ratio(self.counter("serve.remote.bytes"), offered),
        );
        let coalesced = self.counter("serve.remote.coalesced_msgs");
        let msgs = if coalesced > 0.0 { coalesced } else { reads };
        out.set_exact("fleet.msgs_per_kreq", ratio(msgs, kreq));
        out.set_exact(
            "fleet.dedup_share",
            ratio(self.counter("serve.remote.dedup_hits"), reads),
        );
        let applied = fleet("fleet.mut.applied");
        out.set_exact(
            "fleet.notify_bytes_per_kmut",
            ratio(fleet("fleet.mut.notify_bytes"), applied / 1000.0),
        );

        // legion-dyn: every server replays the same log, so per-server
        // counters are averaged back to one log's worth.
        let n = self.servers.len() as f64;
        let mutations = self.counter("graph.mut.inserts") + self.counter("graph.mut.deletes");
        out.set_exact("dyn.mutations_per_kreq", ratio(mutations / n, kreq));
        out.set_exact("dyn.compactions", self.counter("graph.mut.compactions") / n);
        out.set_exact(
            "dyn.overlay_rows",
            self.counter("graph.mut.overlay_rows") / n,
        );
        out.set_exact(
            "dyn.invalidated_topo_rows",
            self.counter("serve.invalidate.topo_rows") / n,
        );
        out.set_exact(
            "dyn.invalidated_residency_bits",
            self.counter("serve.invalidate.residency_bits") / n,
        );

        // legion-telemetry.
        let names = |s: &Snapshot| s.counters.len() + s.gauges.len() + s.histograms.len();
        let total: usize =
            self.servers.iter().map(|s| names(s)).sum::<usize>() + self.fleet.map_or(0, names);
        out.set_exact("telemetry.metric_names", total as f64);
    }
}

/// Quantile of a bucketed histogram, interpolated inside the bucket the
/// rank falls in (as `Histogram::quantile` does, but not rounded); the
/// overflow bucket saturates at the last bound.
pub fn histogram_quantile(bounds: &[u64], counts: &[u64], q: f64) -> f64 {
    let total: u64 = counts.iter().sum();
    if total == 0 {
        return 0.0;
    }
    let rank = ((q * total as f64).ceil() as u64).clamp(1, total);
    let mut below = 0u64;
    for (i, &c) in counts.iter().enumerate() {
        if below + c >= rank {
            if i >= bounds.len() {
                return bounds.last().copied().unwrap_or(0) as f64;
            }
            let lower = if i == 0 { 0 } else { bounds[i - 1] };
            let into = (rank - below) as f64 / c as f64;
            return lower as f64 + (bounds[i] - lower) as f64 * into;
        }
        below += c;
    }
    unreachable!("rank {rank} exceeds total {total}")
}

#[cfg(test)]
mod tests {
    use super::*;
    use legion_telemetry::Registry;

    #[test]
    fn quantile_matches_the_registry_histogram() {
        let r = Registry::new();
        let h = r.histogram("h", &[10, 20, 40]);
        for v in [1, 5, 12, 18, 19, 35, 100] {
            h.observe(v);
        }
        for q in [0.0, 0.5, 0.9, 0.99, 1.0] {
            assert_eq!(
                histogram_quantile(h.bounds(), &h.counts(), q).round(),
                h.quantile(q) as f64,
                "q = {q}"
            );
        }
        assert_eq!(histogram_quantile(&[10], &[0, 0], 0.5), 0.0);
    }

    #[test]
    fn counts_come_from_the_snapshot_and_default_to_zero() {
        let r = Registry::new();
        r.counter("cache.gpu0.feature_hits").add(30);
        r.counter("cache.gpu1.feature_misses").add(10);
        r.counter("pcm.gpu0.feature_tx").add(500);
        r.counter("pcm.gpu1.topology_tx").add(700);
        r.counter("traffic.dst0.cpu_bytes").add(64);
        r.counter("traffic.dst0.src1_bytes").add(36);
        let snap = r.snapshot();
        let view = RunView {
            servers: vec![&snap],
            fleet: None,
            seeds: 100,
            socket_of: vec![0, 1],
        };
        let mut out = Outcome::default();
        view.record(&mut out);
        assert_eq!(out.value("cache.feature_hit_rate"), 0.75);
        assert_eq!(out.value("hw.pcie_feature_tx_per_kseed"), 5000.0);
        assert_eq!(out.value("hw.pcie_max_socket_tx"), 700.0);
        assert_eq!(out.value("hw.cpu_bytes_per_seed"), 0.64);
        assert_eq!(out.value("hw.nvlink_bytes_per_seed"), 0.36);
        for bypassed in [
            "store.nvme_bytes_per_req",
            "dyn.compactions",
            "fleet.locality",
        ] {
            assert_eq!(out.value(bypassed), 0.0);
        }
    }
}
