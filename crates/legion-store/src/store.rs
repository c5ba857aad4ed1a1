//! The per-GPU vertex store: which rows live on the SSD, the staging
//! buffer, and the NVMe submission queue.
//!
//! One `VertexStore` sits behind each GPU worker's extraction path
//! (its NVMe namespace and pinned staging window are NUMA-local, so
//! workers never share mutable store state). The extractor keeps
//! using its existing batch interface; after the HBM lookup it
//! [claims](VertexStore::claim) the missed vertices here, and the
//! batch's [charge](VertexStore::charge) answers with deterministic
//! timing:
//!
//! * DRAM-tier rows cost nothing extra — the access engine already
//!   metered their PCIe read.
//! * SSD-tier rows staged ahead of time are **prefetch hits**: the row
//!   is already in the DRAM staging window.
//! * SSD-tier rows in flight stall the batch until their read lands.
//! * Everything else is a **cold read**: a block read submitted to the
//!   device queue, stalling the batch for its completion.
//!
//! Reads submitted while the device is still busy join the wave queued
//! behind it, sharing its flash latency and paying only their own
//! transfer; once that wave has started, the next submission opens a
//! new one. Commands complete in submission order.
//!
//! All device time is integer nanoseconds derived from the analytic
//! [`NvmeModel`], so a run's store timeline is reproducible
//! byte-for-byte.

use legion_graph::{CsrGraph, VertexId};

use crate::nvme::NvmeModel;
use crate::staging::{Staged, StagingBuffer};
use crate::tier::{Tier, TierMap};

/// Converts simulated seconds to the store's integer nanosecond clock.
#[inline]
fn to_ns(seconds: f64) -> u64 {
    (seconds * 1e9).round() as u64
}

/// Converts the store's nanosecond clock back to simulated seconds.
#[inline]
fn to_s(ns: u64) -> f64 {
    ns as f64 * 1e-9
}

/// What one batch's SSD traffic did — the engine turns this into
/// telemetry and extract-time charges.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct ReadOutcome {
    /// SSD rows found staged and ready — the prefetcher won.
    pub prefetch_hits: u64,
    /// SSD rows staged but still in flight; the batch waited for them.
    pub late_stalls: u64,
    /// SSD rows absent from staging; block reads issued inline.
    pub cold_reads: u64,
    /// Staged rows displaced by this batch's admissions.
    pub evictions: u64,
    /// NVMe commands issued (cold reads).
    pub nvme_reads: u64,
    /// Bytes moved off the device, whole blocks.
    pub nvme_bytes: u64,
    /// Seconds the batch stalled waiting for SSD rows.
    pub stall_s: f64,
    /// Device time from the start of the wave the cold reads ran in to
    /// the last of them completing, microseconds.
    pub read_us: u64,
}

/// What one prefetch issue did.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct PrefetchOutcome {
    /// Rows newly requested from the device.
    pub issued: u64,
    /// Staged rows displaced by the new requests.
    pub evictions: u64,
    /// Bytes the requests will move, whole blocks.
    pub nvme_bytes: u64,
    /// Device time from the start of the wave the requests ran in to the
    /// last of them completing, microseconds.
    pub read_us: u64,
}

/// What one batch-boundary migration did.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct MigrateOutcome {
    /// Rows moved SSD -> DRAM (device reads).
    pub promoted: u64,
    /// Rows moved DRAM -> SSD (device writes).
    pub demoted: u64,
    /// Bytes moved through the device, whole blocks.
    pub nvme_bytes: u64,
    /// Seconds from the call until the swap completes: its wait behind
    /// earlier waves plus its own device time.
    pub swap_s: f64,
}

/// Per-GPU out-of-core store state.
#[derive(Debug, Clone)]
pub struct VertexStore {
    nvme: NvmeModel,
    tiers: TierMap,
    staging: StagingBuffer,
    row_bytes: u64,
    /// When the device finishes everything submitted so far. Only
    /// [`submit`](Self::submit) moves it, and only forward.
    free_at_ns: u64,
    /// The newest wave, `(start_ns, commands)`, while later submissions
    /// may still join it; a migration closes it.
    queued: Option<(u64, u64)>,
    /// Per vertex, the prefetch wave that last took it (`waves` counts
    /// them), so a repeated candidate is dropped with one load.
    last_wave: Vec<u64>,
    waves: u64,
    /// Whether placement put each row on the SSD.
    placed_on_ssd: Vec<bool>,
    /// The batch's HBM misses, claimed and awaiting its charge.
    claimed: Vec<VertexId>,
}

impl VertexStore {
    /// A store over `num_vertices` rows of `row_bytes` each, all
    /// initially DRAM-resident, with a staging window of
    /// `staging_rows`.
    pub fn new(nvme: NvmeModel, num_vertices: usize, row_bytes: u64, staging_rows: usize) -> Self {
        Self {
            nvme,
            tiers: TierMap::new(num_vertices),
            staging: StagingBuffer::new(num_vertices, staging_rows),
            row_bytes,
            free_at_ns: 0,
            queued: None,
            last_wave: vec![0; num_vertices],
            waves: 0,
            placed_on_ssd: vec![false; num_vertices],
            claimed: Vec::new(),
        }
    }

    /// The store a placement spills into: the rows of `ssd_rows`, hottest
    /// first, live on the SSD, every other row in DRAM, and the staging
    /// window is warmed from the head of `ssd_rows` (see
    /// [`warm`](Self::warm)).
    pub fn with_ssd_rows(
        nvme: NvmeModel,
        num_vertices: usize,
        row_bytes: u64,
        staging_rows: usize,
        ssd_rows: &[VertexId],
    ) -> Self {
        let mut store = Self::new(nvme, num_vertices, row_bytes, staging_rows);
        for &v in ssd_rows {
            store.assign(v, Tier::Ssd);
        }
        store.warm(ssd_rows.iter().copied());
        store
    }

    /// The tier of `v`.
    #[inline]
    pub fn tier(&self, v: VertexId) -> Tier {
        self.tiers.tier(v)
    }

    /// Places `v` in `tier` (no device traffic): its tier now, and the
    /// one it falls back to on leaving a re-plan.
    pub fn assign(&mut self, v: VertexId, tier: Tier) {
        self.tiers.set(v, tier);
        self.placed_on_ssd[v as usize] = tier == Tier::Ssd;
    }

    /// Rows staged or in flight.
    pub fn staged_rows(&self) -> usize {
        self.staging.len()
    }

    /// Reads still in flight at simulated time `at_s`.
    pub fn inflight(&self, at_s: f64) -> usize {
        self.staging.inflight(to_ns(at_s))
    }

    /// Whether the device has finished everything submitted so far by
    /// simulated time `at_s`: its queue horizon is at or before `at_s`.
    pub fn drained_by(&self, at_s: f64) -> bool {
        self.free_at_ns <= to_ns(at_s)
    }

    /// Device time, nanoseconds, until the first `commands` commands of
    /// a wave have completed.
    fn read_ns(&self, commands: u64) -> u64 {
        to_ns(self.nvme.read_seconds(commands, self.row_bytes))
    }

    /// Submits `rows` commands at `now_ns`; returns the start of the wave
    /// they run in and the index of the first of them within it. While
    /// the newest wave has not started by `now_ns` the rows join it and
    /// share its flash latency; otherwise they open a wave at the
    /// device's horizon or at `now_ns`, whichever is later.
    fn submit(&mut self, now_ns: u64, rows: u64) -> (u64, u64) {
        let (start_ns, first) = match self.queued {
            Some((start_ns, commands)) if start_ns > now_ns => (start_ns, commands),
            _ => (self.free_at_ns.max(now_ns), 0),
        };
        self.queued = Some((start_ns, first + rows));
        self.free_at_ns = start_ns + self.read_ns(first + rows);
        (start_ns, first)
    }

    /// Submits `rows` as reads at `now_ns` and stages each one ready as
    /// its command completes: command `i` of a wave at
    /// `start + read_ns(i + 1)`. A joining row lands after every row of
    /// the wave it joined and a new wave starts at or after the horizon,
    /// so ready times never decrease from one staged row to the next —
    /// the order the staging window relies on. Returns the evictions and
    /// the device time from the wave's start to the last row.
    fn stage_reads(&mut self, now_ns: u64, rows: Vec<VertexId>) -> (u64, u64) {
        let (start_ns, first) = self.submit(now_ns, rows.len() as u64);
        let mut evictions = 0;
        for (i, v) in (first + 1..).zip(rows) {
            let ready_ns = start_ns + self.read_ns(i);
            if let Staged::Admitted { evicted: Some(_) } = self.staging.stage(v, ready_ns) {
                evictions += 1;
            }
        }
        (evictions, self.free_at_ns - start_ns)
    }

    /// Serves a batch's HBM misses at simulated time `at_s`. `missed`
    /// is the deduplicated vertex list the extractor failed to find in
    /// HBM; DRAM-tier rows pass through untouched (the caller already
    /// metered their PCIe cost), SSD-tier rows resolve against the
    /// staging window or the device.
    pub fn read(&mut self, at_s: f64, missed: &[VertexId]) -> ReadOutcome {
        let mut out = ReadOutcome::default();
        if self.tiers.all_resident() {
            return out;
        }
        let now_ns = to_ns(at_s);
        let mut stall_ns = 0u64;
        let mut cold: Vec<VertexId> = Vec::new();
        for &v in missed {
            if self.tiers.tier(v) != Tier::Ssd {
                continue;
            }
            match self.staging.ready_at_ns(v) {
                Some(ready) if ready <= now_ns => out.prefetch_hits += 1,
                Some(ready) => {
                    out.late_stalls += 1;
                    stall_ns = stall_ns.max(ready - now_ns);
                }
                None => cold.push(v),
            }
        }
        if !cold.is_empty() {
            out.cold_reads = cold.len() as u64;
            out.nvme_reads = cold.len() as u64;
            out.nvme_bytes = cold.len() as u64 * self.nvme.bytes_for_payload(self.row_bytes);
            let (evictions, wave_ns) = self.stage_reads(now_ns, cold);
            out.evictions = evictions;
            out.read_us = wave_ns / 1_000;
            stall_ns = stall_ns.max(self.free_at_ns - now_ns);
        }
        out.stall_s = to_s(stall_ns);
        out
    }

    /// Claims `v`, one of a batch's HBM misses, for its charge.
    pub fn claim(&mut self, v: VertexId) {
        self.claimed.push(v);
    }

    /// [`read`](Self::read)s the rows claimed since the last charge, in
    /// claim order, at simulated time `at_s`.
    pub fn charge(&mut self, at_s: f64) -> ReadOutcome {
        let claimed = std::mem::take(&mut self.claimed);
        let out = self.read(at_s, &claimed);
        self.claimed = claimed;
        self.claimed.clear();
        out
    }

    /// Warm-starts the staging window before the serving clock runs:
    /// stages SSD-tier rows from `candidates` (deduplicated, in order)
    /// until the window is full, all ready at t=0, without charging the
    /// device horizon. This is the staging analogue of the HBM cache's
    /// warmup fill — a deployment stages the warm tail during the
    /// warmup epoch, outside the measured window. Returns the number of
    /// rows warmed.
    ///
    /// # Panics
    ///
    /// Panics if it has to stage a row after a [`read`](Self::read) or
    /// [`prefetch`](Self::prefetch) staged one that is ready later than
    /// t=0: warming comes first.
    pub fn warm<I>(&mut self, candidates: I) -> u64
    where
        I: IntoIterator<Item = VertexId>,
    {
        let mut warmed = 0u64;
        for v in candidates {
            if warmed as usize == self.staging.capacity() {
                break;
            }
            if self.tiers.tier(v) == Tier::Ssd && !self.staging.contains(v) {
                self.staging.stage(v, 0);
                warmed += 1;
            }
        }
        warmed
    }

    /// Issues asynchronous staging reads for up to `budget` SSD-tier
    /// rows from `candidates` at simulated time `at_s`. Already-staged
    /// and in-flight rows are deduplicated; the reads queue like cold
    /// reads but stall nothing.
    pub fn prefetch<I>(&mut self, at_s: f64, candidates: I, budget: usize) -> PrefetchOutcome
    where
        I: IntoIterator<Item = VertexId>,
    {
        let mut out = PrefetchOutcome::default();
        if budget == 0 || self.staging.capacity() == 0 || self.tiers.all_resident() {
            return out;
        }
        self.waves += 1;
        let mut wave: Vec<VertexId> = Vec::new();
        for v in candidates {
            if wave.len() == budget {
                break;
            }
            if self.tiers.tier(v) == Tier::Ssd
                && !self.staging.contains(v)
                && self.last_wave[v as usize] != self.waves
            {
                self.last_wave[v as usize] = self.waves;
                wave.push(v);
            }
        }
        if wave.is_empty() {
            return out;
        }
        out.issued = wave.len() as u64;
        out.nvme_bytes = wave.len() as u64 * self.nvme.bytes_for_payload(self.row_bytes);
        let (evictions, wave_ns) = self.stage_reads(to_ns(at_s), wave);
        out.evictions = evictions;
        out.read_us = wave_ns / 1_000;
        out
    }

    /// [`prefetch`](Self::prefetch) over the neighbourhoods of
    /// `targets`: each target, then its first `neighbors` adjacency
    /// entries, in order — the rows a sampler expanding them reads first.
    pub fn prefetch_around(
        &mut self,
        at_s: f64,
        graph: &CsrGraph,
        targets: impl IntoIterator<Item = VertexId>,
        neighbors: usize,
        budget: usize,
    ) -> PrefetchOutcome {
        let around =
            |t| std::iter::once(t).chain(graph.neighbors(t).iter().take(neighbors).copied());
        self.prefetch(at_s, targets.into_iter().flat_map(around), budget)
    }

    /// [`migrate`](Self::migrate)s for a re-plan from `old_feat` to
    /// `new_feat` (ascending) that pulls `refill` (within `new_feat`)
    /// into HBM: refill rows on the SSD are promoted; rows that left the
    /// plan, were placed on the SSD and sit in DRAM are demoted.
    pub fn migrate_plan(
        &mut self,
        at_s: f64,
        old_feat: &[VertexId],
        new_feat: &[VertexId],
        refill: &[VertexId],
    ) -> MigrateOutcome {
        let left: Vec<VertexId> = old_feat
            .iter()
            .copied()
            .filter(|&v| self.placed_on_ssd[v as usize] && new_feat.binary_search(&v).is_err())
            .collect();
        self.migrate(at_s, refill, &left)
    }

    /// Migrates rows across the DRAM/SSD boundary at a batch boundary:
    /// `promote` moves SSD rows into permanent DRAM residency (device
    /// reads), `demote` pushes DRAM rows out to the SSD (device
    /// writes). The swap queues behind every wave submitted so far and
    /// later submissions queue behind it. The returned time, from the
    /// call to the swap's completion, is the committing batch's to pay.
    pub fn migrate(
        &mut self,
        at_s: f64,
        promote: &[VertexId],
        demote: &[VertexId],
    ) -> MigrateOutcome {
        let mut out = MigrateOutcome::default();
        for &v in promote {
            if self.tiers.set(v, Tier::Dram) == Tier::Ssd {
                out.promoted += 1;
                self.staging.remove(v);
            }
        }
        for &v in demote {
            if self.tiers.set(v, Tier::Ssd) == Tier::Dram {
                out.demoted += 1;
            }
        }
        let moves = out.promoted + out.demoted;
        if moves > 0 {
            let now_ns = to_ns(at_s);
            // Closing the queued wave before and after the swap keeps it
            // from joining one and keeps later reads from joining it.
            self.queued = None;
            self.submit(now_ns, moves);
            self.queued = None;
            out.nvme_bytes = moves * self.nvme.bytes_for_payload(self.row_bytes);
            out.swap_s = to_s(self.free_at_ns - now_ns);
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::nvme::NvmeGeneration;

    fn store(staging_rows: usize) -> VertexStore {
        let mut s = VertexStore::new(
            NvmeModel::new(NvmeGeneration::Gen3x4),
            64,
            512,
            staging_rows,
        );
        for v in 32..64 {
            s.assign(v, Tier::Ssd);
        }
        s
    }

    #[test]
    fn dram_rows_cost_nothing() {
        let mut s = store(8);
        let out = s.read(0.0, &[0, 1, 2]);
        assert_eq!(out, ReadOutcome::default());
    }

    #[test]
    fn cold_read_stalls_and_stages() {
        let mut s = store(8);
        let out = s.read(0.0, &[40]);
        assert_eq!(out.cold_reads, 1);
        assert_eq!(out.prefetch_hits, 0);
        assert!(out.stall_s > 0.0);
        assert_eq!(out.nvme_bytes, 4096);
        // The row is staged now: a later read is a prefetch hit.
        let again = s.read(1.0, &[40]);
        assert_eq!(again.prefetch_hits, 1);
        assert_eq!(again.cold_reads, 0);
        assert_eq!(again.stall_s, 0.0);
    }

    #[test]
    fn prefetch_hides_the_stall() {
        let mut cold = store(8);
        let cold_out = cold.read(1.0, &[40, 41, 42]);
        let mut warm = store(8);
        let pf = warm.prefetch(0.0, [40u32, 41, 42], 8);
        assert_eq!(pf.issued, 3);
        let warm_out = warm.read(1.0, &[40, 41, 42]);
        assert_eq!(warm_out.prefetch_hits, 3);
        assert_eq!(warm_out.cold_reads, 0);
        assert!(warm_out.stall_s < cold_out.stall_s);
    }

    #[test]
    fn prefetch_around_walks_each_target_then_its_leading_neighbors() {
        let mut b = legion_graph::GraphBuilder::new(64);
        for (target, first) in [(32u32, 40u32), (33, 44)] {
            for v in first..first + 4 {
                b.push_edge(target, v);
            }
        }
        let g = b.build();
        let mut s = store(16);
        // Two neighbors each under a budget of five: 32, 40, 41, 33, 44.
        assert_eq!(s.prefetch_around(0.0, &g, [32, 33], 2, 5).issued, 5);
        let out = s.read(1.0, &[32, 40, 41, 33, 44, 42, 45]);
        assert_eq!((out.prefetch_hits, out.cold_reads), (5, 2));
    }

    #[test]
    fn late_prefetch_stalls_until_ready() {
        let mut s = store(8);
        s.prefetch(0.0, [40u32], 8);
        // Read at t=0: the prefetch wave has not completed yet.
        let out = s.read(0.0, &[40]);
        assert_eq!(out.late_stalls, 1);
        assert_eq!(out.cold_reads, 0);
        assert!(out.stall_s > 0.0);
    }

    #[test]
    fn prefetch_dedups_inflight_rows() {
        let mut s = store(8);
        assert_eq!(s.prefetch(0.0, [40u32, 40, 41], 8).issued, 2);
        assert_eq!(s.prefetch(0.0, [40u32, 41], 8).issued, 0);
    }

    #[test]
    fn device_horizon_serializes_waves() {
        let mut s = store(64);
        let a = s.prefetch(0.0, 32..48u32, 64);
        let b = s.prefetch(0.0, 48..64u32, 64);
        assert_eq!(a.issued, 16);
        assert_eq!(b.issued, 16);
        // Second wave queues behind the first: in-flight until both done.
        assert_eq!(s.inflight(0.0), 32);
        assert!(s.inflight(1.0) == 0);
        assert!(!s.drained_by(0.0));
        assert!(s.drained_by(1.0));
    }

    /// When staged row `v` lands, nanoseconds.
    fn ready_ns(s: &VertexStore, v: VertexId) -> u64 {
        let out = s.clone().read(0.0, &[v]);
        assert_eq!(out.late_stalls, 1, "row {v} is in flight");
        to_ns(out.stall_s)
    }

    #[test]
    fn prefetches_queued_behind_a_busy_device_share_one_latency() {
        let mut s = store(8);
        let one = s.read_ns(1);
        s.prefetch(0.0, [32u32], 8);
        // The device is busy until `one`: both prefetches below join the
        // wave queued behind it.
        let a = s.prefetch(1e-6, [33u32], 8);
        let b = s.prefetch(2e-6, [34u32, 35], 8);
        assert_eq!(ready_ns(&s, 33), 2 * one);
        for (i, v) in [(2, 34), (3, 35)] {
            assert_eq!(ready_ns(&s, v), one + s.read_ns(i));
        }
        // One 80 us latency for the three rows, not one per prefetch.
        assert!(ready_ns(&s, 35) - ready_ns(&s, 33) < 80_000);
        assert_eq!((a.read_us, b.read_us), (one / 1_000, s.read_ns(3) / 1_000));
        assert_eq!(s.read(0.0, &[36]).stall_s, to_s(one + s.read_ns(4)));
    }

    #[test]
    fn a_call_after_the_queued_wave_started_opens_a_new_wave() {
        let mut s = store(8);
        let one = s.read_ns(1);
        s.prefetch(0.0, [32u32], 8);
        s.prefetch(1e-6, [33u32], 8);
        // The wave holding 33 started at `one`; 34 pays its own latency.
        s.prefetch(to_s(one + 1), [34u32], 8);
        assert_eq!(ready_ns(&s, 34), 3 * one);
        // A wave starting exactly now has started: 35 opens the next one.
        let cold = s.read(to_s(2 * one), &[35]);
        assert_eq!(cold.stall_s, to_s(2 * one));
        assert_eq!(cold.read_us, one / 1_000);
    }

    #[test]
    fn migrate_pays_its_wait_behind_an_inflight_wave() {
        let mut s = store(8);
        s.prefetch(0.0, 32..40u32, 8);
        let out = s.migrate(1e-6, &[40], &[0]);
        assert_eq!(out.nvme_bytes, 2 * 4096);
        assert!(out.swap_s > s.nvme.read_seconds(2, 512));
        assert_eq!(to_ns(out.swap_s), s.read_ns(8) + s.read_ns(2) - 1_000);
    }

    #[test]
    fn prefetch_after_a_migrate_waits_for_it() {
        let mut s = store(8);
        let one = s.read_ns(1);
        s.prefetch(0.0, [32u32], 8);
        // Queued behind 32's wave, the swap starts at `one`; a prefetch
        // issued before then does not join it.
        s.migrate(1e-6, &[40], &[0]);
        s.prefetch(2e-6, [33u32], 8);
        assert_eq!(ready_ns(&s, 33), one + s.read_ns(2) + one);
    }

    #[test]
    fn staging_evictions_are_counted() {
        let mut s = store(2);
        let out = s.prefetch(0.0, 32..36u32, 2);
        assert_eq!(out.issued, 2);
        let out2 = s.prefetch(10.0, 34..36u32, 2);
        assert_eq!(out2.issued, 2);
        assert_eq!(out2.evictions, 2);
    }

    #[test]
    fn migrate_moves_tiers_and_charges_the_device() {
        let mut s = store(8);
        s.prefetch(0.0, [40u32], 8);
        let out = s.migrate(1.0, &[40, 41], &[0, 1]);
        assert_eq!(out.promoted, 2);
        assert_eq!(out.demoted, 2);
        assert!(out.swap_s > 0.0);
        assert_eq!(out.nvme_bytes, 4 * 4096);
        assert_eq!(s.tier(40), Tier::Dram);
        assert_eq!(s.tier(0), Tier::Ssd);
        // Promotion removed the row from staging (it is DRAM now).
        assert_eq!(s.read(100.0, &[40]), ReadOutcome::default());
        // Already-DRAM promotes and already-SSD demotes are no-ops.
        assert_eq!(s.migrate(2.0, &[40], &[0]), MigrateOutcome::default());
    }

    #[test]
    fn warm_start_fills_staging_without_device_time() {
        let mut s = store(8);
        // 40 is warmed; DRAM rows and overflow beyond capacity are not.
        let warmed = s.warm([0u32, 40, 41, 42, 43, 44, 45, 46, 47, 48, 49]);
        assert_eq!(warmed, 8);
        assert_eq!(s.staged_rows(), 8);
        assert_eq!(s.inflight(0.0), 0, "warmed rows are ready at t=0");
        let out = s.read(0.0, &[40]);
        assert_eq!(out.prefetch_hits, 1);
        assert_eq!(out.stall_s, 0.0);
        // The un-warmed row 48 is still a cold read.
        assert_eq!(s.read(0.0, &[48]).cold_reads, 1);
    }

    #[test]
    fn all_resident_store_is_inert() {
        let mut s = VertexStore::new(NvmeModel::new(NvmeGeneration::Gen3x4), 16, 512, 4);
        assert_eq!(s.read(0.0, &[0, 1]), ReadOutcome::default());
        assert_eq!(s.prefetch(0.0, [0u32, 1], 4), PrefetchOutcome::default());
    }
}
