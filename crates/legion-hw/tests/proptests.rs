//! Property-based tests for the hardware model invariants.

use proptest::prelude::*;

use legion_hw::{GpuDevice, NetModel, NvLinkTopology, PcieGeneration, PcieModel, UplinkConfig};

proptest! {
    #[test]
    fn device_accounting_never_goes_negative_or_over(
        capacity in 1u64..1_000_000,
        ops in proptest::collection::vec((any::<bool>(), 0u64..100_000), 0..64),
    ) {
        let mut gpu = GpuDevice::new(0, capacity);
        for (is_alloc, bytes) in ops {
            if is_alloc {
                let before = gpu.allocated_bytes();
                match gpu.alloc(bytes) {
                    Ok(()) => prop_assert_eq!(gpu.allocated_bytes(), before + bytes),
                    Err(_) => prop_assert_eq!(gpu.allocated_bytes(), before),
                }
            } else {
                let before = gpu.allocated_bytes();
                match gpu.free(bytes) {
                    Ok(()) => prop_assert_eq!(gpu.allocated_bytes(), before - bytes),
                    Err(_) => prop_assert_eq!(gpu.allocated_bytes(), before),
                }
            }
            prop_assert!(gpu.allocated_bytes() <= capacity);
            prop_assert_eq!(gpu.free_bytes(), capacity - gpu.allocated_bytes());
        }
    }

    #[test]
    fn pcie_transactions_cover_payload(payload in 0u64..1_000_000) {
        let model = PcieModel::new(PcieGeneration::Gen3x16);
        let cls = model.cls();
        let tx = model.transactions_for_payload(payload);
        // Lines cover the payload with less than one line of slack.
        prop_assert!(tx * cls >= payload);
        prop_assert!(tx * cls < payload + cls);
    }

    #[test]
    fn effective_bandwidth_monotone_and_bounded(
        p1 in 1.0f64..1e6,
        p2 in 1.0f64..1e6,
    ) {
        let model = PcieModel::new(PcieGeneration::Gen4x16);
        let (lo, hi) = if p1 < p2 { (p1, p2) } else { (p2, p1) };
        prop_assert!(model.effective_bandwidth(lo) <= model.effective_bandwidth(hi) + 1e-9);
        prop_assert!(model.effective_bandwidth(hi) <= model.peak_bandwidth());
    }

    #[test]
    fn net_reads_respect_the_rtt_floor(
        reads in 1u64..10_000,
        payload in 0u64..100_000,
    ) {
        let net = NetModel::rdma();
        // One read of no payload is one round trip; any nonempty read
        // set pays at least that, empty payloads included.
        let rtt = net.read_seconds_at(1, 0, 1);
        prop_assert!(rtt > 0.0);
        prop_assert!(net.read_seconds_at(reads, payload, 1) >= rtt);
    }

    #[test]
    fn net_time_is_monotone_in_payload(
        reads in 1u64..1_000,
        p1 in 1u64..100_000,
        p2 in 1u64..100_000,
    ) {
        let net = NetModel::rdma();
        let (lo, hi) = if p1 < p2 { (p1, p2) } else { (p2, p1) };
        prop_assert!(net.read_seconds_at(reads, lo, 1) <= net.read_seconds_at(reads, hi, 1));
    }

    #[test]
    fn net_waves_follow_the_inflight_cap(
        reads in 1u64..100_000,
        payload in 1u64..4_096,
    ) {
        let net = NetModel::rdma();
        // Total time covers ceil(reads / max_inflight) round-trip waves.
        let waves = reads.div_ceil(net.max_inflight());
        let rtt = net.read_seconds_at(1, 0, 1);
        prop_assert!(net.read_seconds_at(reads, payload, 1) >= waves as f64 * rtt);
    }

    #[test]
    fn net_contention_is_monotone_and_exact_at_one_server(
        reads in 1u64..10_000,
        payload in 1u64..100_000,
        over in 1.0f64..16.0,
        nic in 0.0f64..1.0,
        k1 in 1usize..32,
        k2 in 1usize..32,
    ) {
        let net = NetModel::rdma()
            .with_contention(UplinkConfig { oversubscription: over, nic_serialization: nic });
        // One server sharing the uplink is the uncontended charge, and
        // the uncontended model at any concurrency too.
        let alone = NetModel::rdma().read_seconds_at(reads, payload, 1);
        prop_assert_eq!(net.read_seconds_at(reads, payload, 1), alone);
        let (lo, hi) = if k1 < k2 { (k1, k2) } else { (k2, k1) };
        prop_assert!(
            net.read_seconds_at(reads, payload, lo) <= net.read_seconds_at(reads, payload, hi)
        );
    }

    #[test]
    fn net_times_are_integer_nanosecond_quantized(
        reads in 0u64..10_000,
        payload in 1u64..100_000,
        k in 1usize..32,
    ) {
        let net = NetModel::rdma()
            .with_contention(UplinkConfig::default());
        let t = net.read_seconds_at(reads, payload, k);
        let ns = t * 1e9;
        prop_assert!((ns - ns.round()).abs() < 1e-6, "not integer-ns: {} s", t);
        // And byte-identical across recomputation (pure function).
        prop_assert_eq!(
            t.to_bits(),
            net.read_seconds_at(reads, payload, k).to_bits()
        );
    }

    #[test]
    fn coalesced_reads_never_beat_the_per_message_floor(
        payloads in proptest::collection::vec(0u64..100_000, 0..64),
        k in 1usize..16,
    ) {
        let net = NetModel::rdma()
            .with_contention(UplinkConfig::default());
        let t = net.coalesced_read_seconds_at(&payloads, k);
        let messages = payloads.iter().filter(|&&p| p > 0).count() as u64;
        if messages == 0 {
            prop_assert_eq!(t, 0.0);
        } else {
            let waves = messages.div_ceil(net.max_inflight());
            prop_assert!(t >= waves as f64 * net.read_seconds_at(1, 0, 1));
            // One batched message per owner never exceeds charging each
            // owner's payload as its own message.
            let per_owner: f64 = payloads
                .iter()
                .filter(|&&p| p > 0)
                .map(|&p| net.read_seconds_at(1, p, k))
                .sum();
            prop_assert!(t <= per_owner + 1e-9);
        }
    }

    /// A wave of rows per owner costs, bit for bit, what the two raw
    /// charges give: every row its own message per row, one message per owner
    /// holding rows per owner, each with one header per message. The
    /// per-owner seconds also equal the coalesced charge's formula,
    /// written out here as the reference.
    #[test]
    fn remote_wave_is_the_raw_charge_plus_its_headers(
        owner_rows in proptest::collection::vec(
            (any::<bool>(), 1u64..300).prop_map(|(idle, r)| if idle { 0 } else { r }),
            0..12,
        ),
        row_bytes in 1u64..8192,
        k in 1usize..20,
    ) {
        let net = NetModel::rdma().with_contention(UplinkConfig::default());
        let rows: u64 = owner_rows.iter().sum();
        let per_row = net.wave(&owner_rows, row_bytes, false, k);
        prop_assert_eq!(
            per_row.seconds.to_bits(),
            net.read_seconds_at(rows, row_bytes, k).to_bits()
        );
        prop_assert_eq!(per_row.wire_bytes, rows * net.bytes_for_payload(row_bytes));
        prop_assert_eq!(per_row.messages, rows);
        let payloads: Vec<u64> = owner_rows
            .iter()
            .filter(|&&r| r > 0)
            .map(|&r| r * row_bytes)
            .collect();
        let per_owner = net.wave(&owner_rows, row_bytes, true, k);
        prop_assert_eq!(
            per_owner.seconds.to_bits(),
            net.coalesced_read_seconds_at(&payloads, k).to_bits()
        );
        let messages = payloads.len() as u64;
        let stretch = if k > 1 { UplinkConfig::default().stretch(k) } else { 1.0 };
        let bw: f64 = payloads
            .iter()
            .map(|&p| p as f64 / net.effective_bandwidth(p as f64))
            .sum();
        let seconds = messages.div_ceil(net.max_inflight()) as f64 * net.read_seconds_at(1, 0, 1)
            + bw * stretch;
        let reference = if messages == 0 { 0.0 } else { (seconds * 1e9).round() / 1e9 };
        prop_assert_eq!(per_owner.seconds.to_bits(), reference.to_bits());
        prop_assert_eq!(
            per_owner.wire_bytes,
            payloads.iter().map(|&p| net.bytes_for_payload(p)).sum::<u64>()
        );
        prop_assert_eq!(per_owner.messages, payloads.len() as u64);
    }

    #[test]
    fn clique_presets_are_symmetric(n_half in 1usize..5, size_pow in 0u32..3) {
        let size = 1usize << size_pow;
        let n = n_half * 2 * size;
        let m = NvLinkTopology::disjoint_cliques(n, size).matrix();
        for a in 0..n {
            prop_assert!(!m[a * n + a]);
            for b in 0..n {
                prop_assert_eq!(m[a * n + b], m[b * n + a]);
            }
        }
    }
}
