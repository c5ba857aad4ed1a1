//! Analytic cluster-interconnect model for cross-server feature reads.
//!
//! The fleet tier (cluster → machine → clique → GPU) needs a cost for a
//! feature row that lives on *another* server's shard. This module
//! mirrors the shape of [`crate::PcieModel`] and
//! `legion_store::NvmeModel`: a payload-dependent effective-bandwidth
//! curve (`throughput(p) = peak * p / (p + overhead)`), plus the two
//! properties that make a datacenter network behave unlike a local bus —
//! a *round-trip latency* per request wave (a one-sided RDMA read of the
//! owning server's memory and back) and a bounded *in-flight window*
//! (requests beyond the window wait for the next wave). Every output is
//! a deterministic function of the request stream and is quantized to
//! whole nanoseconds, so fleet runs stay byte-identical per seed on the
//! same integer-ns horizon as the rest of the simulator.

/// Achievable peak per-link bandwidth of the fleet's 400 GbE / NDR-class
/// fabric in bytes/s, for large, well-batched transfers.
const PEAK_BANDWIDTH: f64 = 50.0e9;

/// Requests a server keeps in flight concurrently; reads beyond this
/// wait for the next round-trip wave.
const MAX_INFLIGHT: u64 = 64;

/// Per-message overhead of a one-sided RDMA read: just the transport
/// header and completion-queue entry — no kernel, no RPC framing.
const MESSAGE_OVERHEAD_BYTES: f64 = 256.0;

/// Round-trip latency of a one-sided RDMA read across a rack switch
/// (~3 us): the fabric class Legion-scale GPU clusters actually deploy.
const RTT_S: f64 = 3e-6;

/// Nanoseconds per second, for the integer-ns quantization.
const NANOS_PER_SEC: f64 = 1e9;

/// Shared-uplink contention: what happens when several servers' remote
/// waves cross the fabric *at the same time*.
///
/// The uncontended [`NetModel::read_seconds_at`] charges each server's
/// wave as if it had the fabric to itself. A real rack does not work
/// that way: every server's NIC also serializes the traffic it *serves*
/// to its peers, and all the servers' flows funnel through a shared
/// top-of-rack uplink that is provisioned below their aggregate line
/// rate (the oversubscription factor). This config captures both
/// effects as a deterministic stretch on the bandwidth term when `k`
/// servers are concurrently active:
///
/// ```text
/// stretch(k) = (1 + (F - 1) * (k - 1) / k)   // ToR oversubscription
///            * (1 + s * (k - 1))             // NIC serialization
/// ```
///
/// where `F = oversubscription` and `s = nic_serialization`. Both
/// factors are exactly `1` at `k = 1` (a lone server sees the
/// uncontended fabric) and strictly increase with `k`: the ToR term
/// approaches the full oversubscription factor `F` as every flow's
/// probability of colliding on the shared uplink grows with `(k-1)/k`,
/// and the NIC term adds a fixed serialization fraction per concurrent
/// peer whose shard reads this server must also serve. Round-trip
/// latency is unaffected — contention queues bytes, not handshakes.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct UplinkConfig {
    /// ToR oversubscription factor `F >= 1`: the shared uplink carries
    /// `1/F` of the servers' aggregate line rate when all of them
    /// burst at once. `1.0` models a non-blocking fabric.
    pub oversubscription: f64,
    /// Fraction of a peer's concurrent wave that serializes through
    /// this server's NIC path (the reads it serves to others share the
    /// same links its own requests use). `0.0` disables the term.
    pub nic_serialization: f64,
}

impl Default for UplinkConfig {
    /// A 4:1 oversubscribed ToR — the common datacenter provisioning —
    /// with a 5% per-peer NIC serialization tax.
    fn default() -> Self {
        Self {
            oversubscription: 4.0,
            nic_serialization: 0.05,
        }
    }
}

impl UplinkConfig {
    /// Checks the invariants the contention model relies on.
    ///
    /// # Panics
    ///
    /// Panics with a descriptive message on the first violated
    /// invariant.
    pub fn validate(&self) {
        assert!(
            self.oversubscription >= 1.0,
            "uplink oversubscription must be >= 1"
        );
        assert!(
            self.nic_serialization >= 0.0,
            "nic_serialization must be non-negative"
        );
    }

    /// The bandwidth-term stretch when `concurrent` servers issue
    /// remote waves at once: exactly `1.0` at one server,
    /// monotonically increasing, bounded by
    /// `oversubscription * (1 + nic_serialization * (k - 1))`.
    pub fn stretch(&self, concurrent: usize) -> f64 {
        let k = concurrent.max(1) as f64;
        let tor = 1.0 + (self.oversubscription - 1.0) * (k - 1.0) / k;
        let nic = 1.0 + self.nic_serialization * (k - 1.0);
        tor * nic
    }
}

/// What one remote wave costs ([`NetModel::wave`]).
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct RemoteWave {
    /// Seconds the wave takes, whole nanoseconds.
    pub seconds: f64,
    /// Bytes on the wire: payloads plus one header per message.
    pub wire_bytes: u64,
    /// Messages sent: one per row, or one per owning server.
    pub messages: u64,
}

/// Analytic cluster-network read model.
///
/// # Examples
///
/// ```
/// use legion_hw::NetModel;
///
/// let net = NetModel::rdma();
/// // One remote 64 B row is header-bound, far below peak.
/// assert!(net.effective_bandwidth(64.0) < 0.25 * net.peak_bandwidth());
/// // A single remote read pays at least one round trip.
/// assert!(net.read_seconds_at(1, 512, 1) >= 3e-6);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NetModel {
    contention: Option<UplinkConfig>,
}

impl NetModel {
    /// A kernel-bypass RDMA fabric: one-sided reads with a 256 B header
    /// and a 3 us round trip per wave — microsecond-class remote memory,
    /// the fabric every fleet runs on.
    pub fn rdma() -> Self {
        Self { contention: None }
    }

    /// Enables the shared-uplink contention model; see
    /// [`UplinkConfig`]. Without it every wave is charged at the
    /// uncontended fabric.
    ///
    /// # Panics
    ///
    /// Panics if `uplink` is invalid ([`UplinkConfig::validate`]).
    pub fn with_contention(mut self, uplink: UplinkConfig) -> Self {
        uplink.validate();
        self.contention = Some(uplink);
        self
    }

    /// Maximum concurrent in-flight requests.
    #[inline]
    pub fn max_inflight(&self) -> u64 {
        MAX_INFLIGHT
    }

    /// Peak per-link bandwidth in bytes/s.
    #[inline]
    pub fn peak_bandwidth(&self) -> f64 {
        PEAK_BANDWIDTH
    }

    /// Effective throughput in bytes/s when every message carries
    /// `payload_bytes` of useful data — the same saturation curve as
    /// the PCIe and NVMe models with per-message overhead.
    pub fn effective_bandwidth(&self, payload_bytes: f64) -> f64 {
        if payload_bytes <= 0.0 {
            return 0.0;
        }
        self.peak_bandwidth() * payload_bytes / (payload_bytes + MESSAGE_OVERHEAD_BYTES)
    }

    /// Bytes on the wire for a read of `payload_bytes`: the payload
    /// plus the per-message header overhead, rounded up to whole bytes.
    #[inline]
    pub fn bytes_for_payload(&self, payload_bytes: u64) -> u64 {
        payload_bytes + MESSAGE_OVERHEAD_BYTES.ceil() as u64
    }

    /// Seconds for a batch of `num_reads` remote reads of
    /// `payload_bytes` each while `concurrent` servers are active: the
    /// requests complete in `ceil(num_reads / max_inflight)` waves, each
    /// paying one round trip, and the payload moves at the
    /// payload-dependent effective bandwidth, stretched by
    /// [`UplinkConfig::stretch`] under contention (exactly the
    /// uncontended charge with no contention config or one server). The
    /// result is quantized to whole nanoseconds so it composes with the
    /// simulator's integer-ns horizon.
    pub fn read_seconds_at(&self, num_reads: u64, payload_bytes: u64, concurrent: usize) -> f64 {
        if num_reads == 0 {
            return 0.0;
        }
        let waves = num_reads.div_ceil(MAX_INFLIGHT);
        // An empty payload moves no bytes: only the round trips are paid.
        let transfer = match num_reads * payload_bytes {
            0 => 0.0,
            bytes => {
                bytes as f64 / self.effective_bandwidth(payload_bytes as f64)
                    * self.stretch_for(concurrent)
            }
        };
        let seconds = waves as f64 * RTT_S + transfer;
        (seconds * NANOS_PER_SEC).round() / NANOS_PER_SEC
    }

    /// Seconds for one *coalesced* remote wave: one batched message per
    /// owning peer, `payloads[i]` payload bytes in message `i` (zero
    /// payloads are skipped). All messages launch inside the same
    /// in-flight window — `ceil(messages / max_inflight)` round-trip
    /// waves — and each message's bytes move at its own
    /// payload-dependent effective bandwidth, stretched by the
    /// contention model for `concurrent` active servers. This is the
    /// per-owner alternative to charging every row as its own message:
    /// fewer messages amortize both the per-message header overhead
    /// and the round-trip waves. Quantized to whole nanoseconds.
    pub fn coalesced_read_seconds_at(&self, payloads: &[u64], concurrent: usize) -> f64 {
        self.wave(payloads, 1, true, concurrent).seconds
    }

    /// Prices one wave of remote rows, `owner_rows[s]` of `row_bytes`
    /// each from server `s`, while `concurrent` servers share the
    /// uplink: per row, each row is its own message
    /// ([`read_seconds_at`](Self::read_seconds_at)); per owner, each
    /// server's rows go in one message, in server order
    /// ([`coalesced_read_seconds_at`](Self::coalesced_read_seconds_at)).
    pub fn wave(
        &self,
        owner_rows: &[u64],
        row_bytes: u64,
        per_owner: bool,
        concurrent: usize,
    ) -> RemoteWave {
        if !per_owner {
            let rows: u64 = owner_rows.iter().sum();
            return RemoteWave {
                seconds: self.read_seconds_at(rows, row_bytes, concurrent),
                wire_bytes: rows * self.bytes_for_payload(row_bytes),
                messages: rows,
            };
        }
        let payloads = owner_rows.iter().map(|&r| r * row_bytes).filter(|&p| p > 0);
        let messages = payloads.clone().count() as u64;
        if messages == 0 {
            return RemoteWave::default();
        }
        let waves = messages.div_ceil(MAX_INFLIGHT);
        let bw: f64 = payloads
            .clone()
            .map(|p| p as f64 / self.effective_bandwidth(p as f64))
            .sum();
        let seconds = waves as f64 * RTT_S + bw * self.stretch_for(concurrent);
        RemoteWave {
            seconds: (seconds * NANOS_PER_SEC).round() / NANOS_PER_SEC,
            wire_bytes: payloads.map(|p| self.bytes_for_payload(p)).sum(),
            messages,
        }
    }

    /// The active contention stretch for `concurrent` servers; `1.0`
    /// when contention is off — multiplying by it reproduces the
    /// uncontended arithmetic exactly.
    fn stretch_for(&self, concurrent: usize) -> f64 {
        match self.contention {
            Some(up) if concurrent > 1 => up.stretch(concurrent),
            _ => 1.0,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn effective_bandwidth_monotone_in_payload() {
        let m = NetModel::rdma();
        let mut prev = 0.0;
        for p in [64.0, 512.0, 4096.0, 65536.0, 1048576.0] {
            let bw = m.effective_bandwidth(p);
            assert!(bw > prev, "bandwidth must grow with payload");
            prev = bw;
        }
        assert!(prev <= m.peak_bandwidth());
    }

    #[test]
    fn network_is_slower_than_the_local_pcie_link() {
        // Remote reads only hurt if the fabric per-row cost exceeds the
        // local extraction cost; a single row must be latency-bound.
        let m = NetModel::rdma();
        assert!(m.read_seconds_at(1, 512, 1) >= RTT_S);
        assert_eq!(m.read_seconds_at(0, 512, 1), 0.0);
    }

    #[test]
    fn an_empty_payload_pays_only_the_round_trip() {
        let m = NetModel::rdma().with_contention(UplinkConfig::default());
        assert_eq!(m.read_seconds_at(1, 0, 1), RTT_S);
        assert_eq!(m.read_seconds_at(MAX_INFLIGHT + 1, 0, 4), 2.0 * RTT_S);
        let wave = m.wave(&[3], 0, false, 1);
        assert!(wave.seconds.is_finite(), "{wave:?}");
        assert_eq!(wave.seconds, RTT_S);
    }

    #[test]
    fn inflight_window_bounds_concurrency() {
        let m = NetModel::rdma();
        let one_wave = m.read_seconds_at(MAX_INFLIGHT, 512, 1);
        let two_waves = m.read_seconds_at(MAX_INFLIGHT + 1, 512, 1);
        assert!(two_waves > one_wave + 0.9 * RTT_S);
        // Within one wave, the round trip is paid once.
        let partial = m.read_seconds_at(MAX_INFLIGHT / 2, 512, 1);
        assert!(one_wave - partial < RTT_S);
    }

    #[test]
    fn batched_reads_amortize_the_round_trip() {
        let m = NetModel::rdma();
        let solo = m.read_seconds_at(1, 512, 1);
        let batch = m.read_seconds_at(64, 512, 1);
        // 64 reads in one wave cost far less than 64 solo reads.
        assert!(batch < 0.5 * (64.0 * solo));
    }

    #[test]
    fn read_seconds_are_whole_nanoseconds() {
        let m = NetModel::rdma();
        for (n, p) in [(1u64, 512u64), (37, 128), (1000, 4096), (63, 260)] {
            let s = m.read_seconds_at(n, p, 1);
            let ns = s * 1e9;
            assert!(
                (ns - ns.round()).abs() < 1e-6,
                "read_seconds_at({n}, {p}, 1) = {s} is not integer-ns"
            );
        }
    }

    #[test]
    fn wire_bytes_include_header_overhead() {
        let m = NetModel::rdma();
        assert_eq!(m.bytes_for_payload(512), 512 + 256);
    }

    #[test]
    fn contention_off_and_one_server_reproduce_the_uncontended_charge() {
        let plain = NetModel::rdma();
        let contended = plain.with_contention(UplinkConfig::default());
        for (n, p) in [(1u64, 512u64), (64, 512), (300, 4096), (7, 64)] {
            // No contention config: any concurrency is charged flat.
            assert_eq!(
                plain.read_seconds_at(n, p, 16),
                plain.read_seconds_at(n, p, 1)
            );
            // Contention config but one active server: exclusive fabric.
            assert_eq!(
                contended.read_seconds_at(n, p, 1),
                plain.read_seconds_at(n, p, 1)
            );
        }
    }

    #[test]
    fn contended_time_is_monotone_in_concurrent_servers() {
        let m = NetModel::rdma().with_contention(UplinkConfig::default());
        let mut prev = 0.0;
        for k in 1..=32 {
            let t = m.read_seconds_at(256, 512, k);
            assert!(
                t >= prev,
                "contended time must not shrink with more servers: k={k} gave {t} < {prev}"
            );
            prev = t;
        }
        // And it genuinely bites: 16 servers on a 4:1 ToR cost more
        // than double the lone-server wave.
        assert!(m.read_seconds_at(256, 512, 16) > 2.0 * m.read_seconds_at(256, 512, 1));
    }

    #[test]
    fn uplink_stretch_shape() {
        let up = UplinkConfig {
            oversubscription: 4.0,
            nic_serialization: 0.05,
        };
        assert_eq!(up.stretch(1), 1.0);
        assert!(up.stretch(2) > 1.0);
        // The ToR term approaches F; with the NIC term the product
        // keeps growing, but stays near F * nic for moderate k.
        assert!(up.stretch(1000) > 3.9);
    }

    #[test]
    fn coalesced_wave_undercuts_per_row_charging() {
        let m = NetModel::rdma();
        // 192 rows of 512 B spread over 3 owners vs 192 individual reads.
        let per_row = m.read_seconds_at(192, 512, 1);
        let coalesced = m.coalesced_read_seconds_at(&[64 * 512, 96 * 512, 32 * 512], 1);
        assert!(
            coalesced < per_row,
            "coalesced {coalesced} must undercut per-row {per_row}"
        );
        // Empty and zero-payload waves cost nothing.
        assert_eq!(m.coalesced_read_seconds_at(&[], 4), 0.0);
        assert_eq!(m.coalesced_read_seconds_at(&[0, 0], 4), 0.0);
        // Integer-ns quantization holds for the coalesced path too.
        let ns = coalesced * 1e9;
        assert!((ns - ns.round()).abs() < 1e-6);
    }

    #[test]
    #[should_panic(expected = "oversubscription must be >= 1")]
    fn undersubscribed_uplink_invalid() {
        NetModel::rdma().with_contention(UplinkConfig {
            oversubscription: 0.5,
            nic_serialization: 0.0,
        });
    }
}
