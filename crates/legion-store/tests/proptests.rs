//! `VertexStore` against a naive model: the staging window as a plain
//! list in stage order, every membership test, eviction, removal and
//! in-flight count a linear scan, and the device as the list of every
//! wave it was given.

use legion_store::{
    MigrateOutcome, NvmeGeneration, NvmeModel, PrefetchOutcome, ReadOutcome, Tier, VertexStore,
};
use proptest::prelude::*;

const N: u32 = 24;
const ROW_BYTES: u64 = 512;

fn to_ns(seconds: f64) -> u64 {
    (seconds * 1e9).round() as u64
}

struct NaiveStore {
    nvme: NvmeModel,
    ssd: Vec<bool>,
    capacity: usize,
    /// `(vertex, ready_ns)`, oldest first.
    staged: Vec<(u32, u64)>,
    /// Every wave so far, oldest first.
    waves: Vec<Wave>,
}

/// One device wave: when it starts, how many commands it holds, and
/// whether a later submission may join it (a swap's wave may not).
struct Wave {
    start_ns: u64,
    commands: u64,
    joinable: bool,
}

impl NaiveStore {
    fn ready(&self, v: u32) -> Option<u64> {
        self.staged.iter().find(|r| r.0 == v).map(|r| r.1)
    }

    /// Stages `v` unless it is staged already; true when a row was
    /// evicted for it.
    fn stage(&mut self, v: u32, ready: u64) -> bool {
        if self.capacity == 0 || self.ready(v).is_some() {
            return false;
        }
        let full = self.staged.len() == self.capacity;
        if full {
            self.staged.remove(0);
        }
        self.staged.push((v, ready));
        full
    }

    /// Device time for the first `commands` commands of a wave.
    fn wave_ns(&self, commands: u64) -> u64 {
        to_ns(self.nvme.read_seconds(commands, ROW_BYTES))
    }

    /// Queues `rows` commands at `now_ns`: into the newest wave if it
    /// may be joined and has not started by then, else into a new wave
    /// starting when the newest one completes, or at `now_ns` if later.
    /// Returns the wave's start and each command's completion time.
    fn submit(&mut self, now_ns: u64, rows: u64, joinable: bool) -> (u64, Vec<u64>) {
        let horizon = self
            .waves
            .last()
            .map_or(0, |w| w.start_ns + self.wave_ns(w.commands));
        let joins = joinable
            && self
                .waves
                .last()
                .is_some_and(|w| w.joinable && w.start_ns > now_ns);
        if !joins {
            self.waves.push(Wave {
                start_ns: horizon.max(now_ns),
                commands: 0,
                joinable,
            });
        }
        let wave = self.waves.last().unwrap();
        let (start, first) = (wave.start_ns, wave.commands);
        let done = (first + 1..=first + rows)
            .map(|i| start + self.wave_ns(i))
            .collect();
        self.waves.last_mut().unwrap().commands += rows;
        (start, done)
    }

    /// Submits block reads of `rows` at `now_ns` and stages each as it
    /// lands; returns the evictions, the device time from the wave's
    /// start to the last row, and when that row lands.
    fn stage_reads(&mut self, now_ns: u64, rows: Vec<u32>) -> (u64, u64, u64) {
        let (start, done) = self.submit(now_ns, rows.len() as u64, true);
        let last = *done.last().unwrap();
        let evictions = rows
            .into_iter()
            .zip(done)
            .map(|(v, ready)| self.stage(v, ready) as u64)
            .sum();
        (evictions, last - start, last)
    }

    fn warm(&mut self, candidates: &[u32]) -> u64 {
        let mut warmed = 0;
        for &v in candidates {
            if warmed as usize == self.capacity {
                break;
            }
            if self.ssd[v as usize] && self.ready(v).is_none() {
                self.stage(v, 0);
                warmed += 1;
            }
        }
        warmed
    }

    fn prefetch(&mut self, at_s: f64, candidates: &[u32], budget: usize) -> PrefetchOutcome {
        let mut out = PrefetchOutcome::default();
        let mut wave: Vec<u32> = Vec::new();
        for &v in candidates {
            if wave.len() == budget || self.capacity == 0 {
                break;
            }
            if self.ssd[v as usize] && self.ready(v).is_none() && !wave.contains(&v) {
                wave.push(v);
            }
        }
        if wave.is_empty() {
            return out;
        }
        out.issued = wave.len() as u64;
        out.nvme_bytes = out.issued * self.nvme.bytes_for_payload(ROW_BYTES);
        let (evictions, dur, _) = self.stage_reads(to_ns(at_s), wave);
        out.evictions = evictions;
        out.read_us = dur / 1_000;
        out
    }

    fn read(&mut self, at_s: f64, missed: &[u32]) -> ReadOutcome {
        let mut out = ReadOutcome::default();
        let now = to_ns(at_s);
        let mut stall = 0u64;
        let mut cold: Vec<u32> = Vec::new();
        for &v in missed.iter().filter(|&&v| self.ssd[v as usize]) {
            match self.ready(v) {
                Some(ready) if ready <= now => out.prefetch_hits += 1,
                Some(ready) => {
                    out.late_stalls += 1;
                    stall = stall.max(ready - now);
                }
                None => cold.push(v),
            }
        }
        if !cold.is_empty() {
            out.cold_reads = cold.len() as u64;
            out.nvme_reads = out.cold_reads;
            out.nvme_bytes = out.cold_reads * self.nvme.bytes_for_payload(ROW_BYTES);
            let (evictions, dur, done) = self.stage_reads(now, cold);
            out.evictions = evictions;
            out.read_us = dur / 1_000;
            stall = stall.max(done - now);
        }
        out.stall_s = stall as f64 * 1e-9;
        out
    }

    fn migrate(&mut self, at_s: f64, promote: &[u32], demote: &[u32]) -> MigrateOutcome {
        let mut out = MigrateOutcome::default();
        for &v in promote {
            if std::mem::replace(&mut self.ssd[v as usize], false) {
                out.promoted += 1;
                self.staged.retain(|r| r.0 != v);
            }
        }
        for &v in demote {
            if !std::mem::replace(&mut self.ssd[v as usize], true) {
                out.demoted += 1;
            }
        }
        let moves = out.promoted + out.demoted;
        if moves > 0 {
            let now = to_ns(at_s);
            let (_, done) = self.submit(now, moves, false);
            out.nvme_bytes = moves * self.nvme.bytes_for_payload(ROW_BYTES);
            out.swap_s = (done.last().unwrap() - now) as f64 * 1e-9;
        }
        out
    }

    fn inflight(&self, at_s: f64) -> usize {
        let now = to_ns(at_s);
        self.staged.iter().filter(|r| r.1 > now).count()
    }
}

/// One scripted call: an op selector, two vertex lists, a budget and a
/// query time in microseconds.
type Op = (u8, Vec<u32>, Vec<u32>, usize, u32);

fn ops() -> impl Strategy<Value = Vec<Op>> {
    let ids = || proptest::collection::vec(0..N, 0..7);
    proptest::collection::vec((0u8..4, ids(), ids(), 0usize..6, 0u32..900), 0..60)
}

proptest! {
    /// Warm starts first (they stage at t=0), then prefetch / read /
    /// migrate in any order at arbitrary — not monotone — query times:
    /// every outcome, every eviction victim and every in-flight count
    /// equals the naive model's.
    #[test]
    fn store_matches_the_naive_model(
        capacity in 0usize..6,
        ssd in proptest::collection::vec(0u8..4, N as usize),
        warm in proptest::collection::vec(proptest::collection::vec(0..N, 0..10), 0..3),
        script in ops(),
    ) {
        let nvme = NvmeModel::new(NvmeGeneration::Gen3x4);
        let mut store = VertexStore::new(nvme, N as usize, ROW_BYTES, capacity);
        let mut naive = NaiveStore {
            nvme,
            ssd: ssd.iter().map(|&t| t != 0).collect(),
            capacity,
            staged: Vec::new(),
            waves: Vec::new(),
        };
        for v in (0..N).filter(|&v| naive.ssd[v as usize]) {
            store.assign(v, Tier::Ssd);
        }
        for w in &warm {
            prop_assert_eq!(store.warm(w.iter().copied()), naive.warm(w));
        }
        for (op, a, b, budget, at_us) in script {
            let at = at_us as f64 * 1e-6;
            match op {
                0 => {
                    let real = store.prefetch(at, a.iter().copied(), budget);
                    prop_assert_eq!(real, naive.prefetch(at, &a, budget));
                }
                1 | 2 => {
                    let mut missed = a;
                    missed.sort_unstable();
                    missed.dedup();
                    prop_assert_eq!(store.read(at, &missed), naive.read(at, &missed));
                }
                _ => prop_assert_eq!(store.migrate(at, &a, &b), naive.migrate(at, &a, &b)),
            }
            prop_assert_eq!(store.staged_rows(), naive.staged.len());
            for probe in [at, at + 1e-4, at_us as f64 * 3e-6] {
                prop_assert_eq!(store.inflight(probe), naive.inflight(probe));
            }
            // Read long after every wave has landed, a row the model
            // holds is a hit and one it evicted is a cold read: the two
            // windows hold the same rows, so they chose the same victims.
            for v in (0..N).filter(|&v| naive.ssd[v as usize]) {
                let cold = store.clone().read(1e3, &[v]).cold_reads;
                prop_assert_eq!(cold == 0, naive.ready(v).is_some(), "row {}", v);
            }
        }
    }
}

proptest! {
    /// A store from the spill constructor answers every read, prefetch
    /// and migrate exactly like one assembled by hand: `new`, each SSD
    /// row assigned, then warmed from the same list.
    #[test]
    fn spilled_store_matches_one_assembled_by_hand(
        capacity in 0usize..6,
        ssd_rows in proptest::collection::vec(0..N, 0..N as usize),
        script in ops(),
    ) {
        let nvme = NvmeModel::new(NvmeGeneration::Gen3x4);
        let mut spilled = VertexStore::with_ssd_rows(nvme, N as usize, ROW_BYTES, capacity, &ssd_rows);
        let mut by_hand = VertexStore::new(nvme, N as usize, ROW_BYTES, capacity);
        for &v in &ssd_rows {
            by_hand.assign(v, Tier::Ssd);
        }
        by_hand.warm(ssd_rows.iter().copied());
        for (op, a, b, budget, at_us) in script {
            let at = at_us as f64 * 1e-6;
            match op {
                0 => prop_assert_eq!(
                    spilled.prefetch(at, a.iter().copied(), budget),
                    by_hand.prefetch(at, a.iter().copied(), budget)
                ),
                1 | 2 => {
                    let mut missed = a;
                    missed.sort_unstable();
                    missed.dedup();
                    prop_assert_eq!(spilled.read(at, &missed), by_hand.read(at, &missed));
                }
                _ => prop_assert_eq!(spilled.migrate(at, &a, &b), by_hand.migrate(at, &a, &b)),
            }
            prop_assert_eq!(spilled.staged_rows(), by_hand.staged_rows());
            prop_assert_eq!(spilled.inflight(at), by_hand.inflight(at));
        }
        for v in 0..N {
            prop_assert_eq!(spilled.tier(v), by_hand.tier(v));
        }
    }
}

/// The re-plan rule as the serving engine wrote it around the store:
/// refill rows on the SSD are promoted; rows that left the plan, were
/// placed on the SSD and sit in DRAM are demoted; nothing to move skips
/// the device.
fn engine_side_migrate(
    store: &mut VertexStore,
    placed_on_ssd: &[bool],
    at_s: f64,
    (old_feat, new_feat, refill): (&[u32], &[u32], &[u32]),
) -> MigrateOutcome {
    let promote: Vec<u32> = refill
        .iter()
        .copied()
        .filter(|&v| store.tier(v) == Tier::Ssd)
        .collect();
    let demote: Vec<u32> = old_feat
        .iter()
        .copied()
        .filter(|&v| new_feat.binary_search(&v).is_err())
        .filter(|&v| placed_on_ssd[v as usize] && store.tier(v) == Tier::Dram)
        .collect();
    if promote.is_empty() && demote.is_empty() {
        return MigrateOutcome::default();
    }
    store.migrate(at_s, &promote, &demote)
}

/// `ids` ascending without repeats, as a plan's feature set is kept.
fn set(mut ids: Vec<u32>) -> Vec<u32> {
    ids.sort_unstable();
    ids.dedup();
    ids
}

proptest! {
    /// The store's own claims and re-plan migrations answer exactly like
    /// the engine-side rule over a store: claimed misses read in claim
    /// order at the charge, and every migration moves the same rows at
    /// the same device time, over random placements, plans, refills
    /// and times.
    #[test]
    fn store_side_replan_and_claims_match_the_engine_side_rule(
        capacity in 0usize..6,
        ssd_rows in proptest::collection::vec(0..N, 0..N as usize),
        script in proptest::collection::vec(
            (0u8..3, proptest::collection::vec(0..N, 0..12),
             proptest::collection::vec(0..N, 0..12),
             proptest::collection::vec(0..N, 0..8), 0u32..900),
            0..60,
        ),
    ) {
        let nvme = NvmeModel::new(NvmeGeneration::Gen3x4);
        let mut store = VertexStore::with_ssd_rows(nvme, N as usize, ROW_BYTES, capacity, &ssd_rows);
        let mut reference = store.clone();
        let mut placed_on_ssd = vec![false; N as usize];
        for &v in &ssd_rows {
            placed_on_ssd[v as usize] = true;
        }
        for (op, a, b, c, at_us) in script {
            let at = at_us as f64 * 1e-6;
            match op {
                0 => prop_assert_eq!(
                    store.prefetch(at, a.iter().copied(), 4),
                    reference.prefetch(at, a.iter().copied(), 4)
                ),
                1 => {
                    for &v in &a {
                        store.claim(v);
                    }
                    prop_assert_eq!(store.charge(at), reference.read(at, &a));
                    // The charge releases its claims.
                    prop_assert_eq!(store.charge(at), ReadOutcome::default());
                }
                _ => {
                    let (old_feat, new_feat) = (set(a), set(b));
                    let refill: Vec<u32> =
                        set(c).into_iter().filter(|v| new_feat.binary_search(v).is_ok()).collect();
                    let plan = (old_feat.as_slice(), new_feat.as_slice(), refill.as_slice());
                    prop_assert_eq!(
                        store.migrate_plan(at, plan.0, plan.1, plan.2),
                        engine_side_migrate(&mut reference, &placed_on_ssd, at, plan)
                    );
                }
            }
            prop_assert_eq!(store.staged_rows(), reference.staged_rows());
            prop_assert_eq!(store.inflight(at), reference.inflight(at));
            for v in 0..N {
                prop_assert_eq!(store.tier(v), reference.tier(v), "row {}", v);
            }
        }
    }
}
