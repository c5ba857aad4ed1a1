//! Run invariants: the identities every serving run satisfies, stated
//! once and checked at the end of every run, in every build.
//!
//! [`Deployment::serve`](crate::Deployment::serve) checks its report;
//! `legion-fleet`'s `serve_fleet` calls [`check_fleet`]. The checker has
//! no flag and registers no metric: it reads only the report and the
//! snapshot the run already built. A violation is an engine bug, not bad
//! input, so the checker panics, naming every violated identity
//! (OPERATIONS.md "Run invariants" lists them). A metric the run did not
//! register reads as 0, so the coalescing and mutation identities hold
//! trivially when those features are off.

use legion_router::RouterPolicy;
use legion_telemetry::Snapshot;

use crate::engine::ServeReport;
use crate::ServeConfig;

/// The violated identities of one run, each as `identity: lhs vs rhs`.
#[derive(Default)]
struct Violations(Vec<String>);

impl Violations {
    fn eq(&mut self, identity: &str, lhs: u64, rhs: u64) {
        self.check(identity, lhs == rhs, lhs, rhs);
    }

    fn le(&mut self, identity: &str, lhs: u64, rhs: u64) {
        self.check(identity, lhs <= rhs, lhs, rhs);
    }

    fn check(&mut self, identity: &str, holds: bool, lhs: u64, rhs: u64) {
        if !holds {
            self.0.push(format!("{identity}: {lhs} vs {rhs}"));
        }
    }

    fn raise(self, what: &str) {
        if !self.0.is_empty() {
            panic!(
                "{what} run invariants violated (an engine bug, not bad input):\n  {}",
                self.0.join("\n  ")
            );
        }
    }
}

/// The sum of the counters named `{prefix}{g}{suffix}` over GPUs `g`.
fn gpu_sum(m: &Snapshot, prefix: &str, suffix: &str) -> u64 {
    let per_gpu = m.counters.iter().filter(|c| c.name.starts_with(prefix));
    let named = per_gpu.filter(|c| c.name.ends_with(suffix));
    named.map(|c| c.value).sum()
}

fn serve_violations(config: &ServeConfig, r: &ServeReport) -> Violations {
    let (m, mut v) = (&r.metrics, Violations::default());
    let (offered, completed, shed) = (r.offered, r.completed, r.shed);
    v.eq("offered == completed + shed", offered, completed + shed);
    let fields = ["offered", "completed", "shed"].into_iter();
    for (field, value) in fields.zip([offered, completed, shed]) {
        let counter = format!("serve.{field}");
        let identity = format!("report.{field} == {counter}");
        v.eq(&identity, value, m.counter(&counter));
    }
    if config.classes.multi_class() {
        let by_class = r.class_completed.iter().sum();
        v.eq("sum(class_completed) == completed", by_class, completed);
    }
    v.eq("sum(class_shed) == shed", r.class_shed.iter().sum(), shed);
    let (by_gpu, total) = (gpu_sum(m, "serve.gpu", ".shed"), m.counter("serve.shed"));
    v.eq("sum(serve.gpu{g}.shed) == serve.shed", by_gpu, total);
    if config.router.policy == RouterPolicy::Residency {
        v.eq("routed + spilled == offered", r.routed + r.spilled, offered);
    }
    let mid_batch = m.counter("serve.replan.mid_batch_commits");
    v.eq("serve.replan.mid_batch_commits == 0", mid_batch, 0);
    let sent = m.counter("serve.remote.coalesced_msgs") + m.counter("serve.remote.dedup_hits");
    let reads = m.counter("serve.remote.reads");
    v.le("coalesced_msgs + dedup_hits <= remote.reads", sent, reads);
    let misses = gpu_sum(m, "cache.gpu", ".feature_misses");
    let reused = m.counter("serve.landing.reused");
    v.le("reused <= sum(cache.gpu{g}.feature_misses)", reused, misses);
    // A reused row reaches no lower tier.
    let store = ["prefetch_hits", "late_stalls", "cold_reads"]
        .map(|outcome| m.counter(&format!("serve.store.{outcome}")));
    let below = store.iter().sum::<u64>() + reads;
    let identity = "prefetch_hits + late_stalls + cold_reads + remote.reads <= misses - reused";
    v.le(identity, below, misses.saturating_sub(reused));
    v
}

fn fleet_violations(fleet: &Snapshot, members: &[ServeReport]) -> Violations {
    let n = members.len() as u64;
    let per_server = |what: &str| -> u64 {
        let server = |s| fleet.counter(&format!("fleet.server{s}.{what}"));
        (0..n).map(server).sum()
    };
    let offered = fleet.counter("fleet.offered");
    let applied = fleet.counter("fleet.mut.applied");
    let mut v = Violations::default();
    let served = fleet.counter("fleet.completed") + fleet.counter("fleet.shed");
    v.eq("fleet.offered == completed + shed", offered, served);
    let by_member = members.iter().map(|r| r.offered).sum();
    v.eq("sum(member offered) == fleet.offered", by_member, offered);
    let placed = per_server("routed") + per_server("spilled");
    v.eq("sum(routed + spilled) == fleet.offered", placed, offered);
    let owned = per_server("mut_owned");
    v.eq("sum(mut_owned) == fleet.mut.applied", owned, applied);
    let notify = fleet.counter("fleet.mut.notify_msgs");
    let fanout = applied * n.saturating_sub(1);
    v.eq("notify_msgs == applied * (n - 1)", notify, fanout);
    v
}

/// Checks one serving run's report.
///
/// # Panics
///
/// Panics naming every violated identity.
pub(crate) fn check_serve(config: &ServeConfig, report: &ServeReport) {
    serve_violations(config, report).raise("serve");
}

/// Checks a fleet run: its roll-up snapshot `fleet` against the member
/// reports it was built from (one per server, in server order; each was
/// already checked by its own run).
///
/// # Panics
///
/// Panics naming every violated identity.
pub fn check_fleet(fleet: &Snapshot, members: &[ServeReport]) {
    fleet_violations(fleet, members).raise("fleet");
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{serve, ArrivalProcess, ClassConfig};
    use legion_graph::{FeatureTable, GraphBuilder};
    use legion_hw::ServerSpec;
    use legion_telemetry::CounterSample;

    /// A real overloaded run the checker passes: residency router and
    /// three QoS classes.
    fn good_run() -> (ServeConfig, ServeReport) {
        let mut b = GraphBuilder::new(256);
        for v in 0..256u32 {
            b.push_edge(v, (v + 7) % 256);
        }
        let mut config = ServeConfig {
            arrival: ArrivalProcess::Poisson { rate: 1.0e8 },
            num_requests: 300,
            queue_capacity: 16,
            fanouts: vec![3, 2],
            classes: ClassConfig {
                mix: [0.25, 0.35, 0.4],
                qos: true,
                ..ClassConfig::default()
            },
            ..ServeConfig::default()
        };
        config.router.policy = RouterPolicy::Residency;
        let server = ServerSpec::custom(4, 1 << 30, 2).build();
        let report = serve(&b.build(), &FeatureTable::zeros(256, 16), &server, &config);
        assert!(report.shed > 0, "the fixture must shed");
        (config, report)
    }

    fn bump(m: &mut Snapshot, name: &str) {
        let value = m.counter(name) + 1;
        set(m, name, value);
    }

    fn set(m: &mut Snapshot, name: &str, value: u64) {
        match m.counters.iter_mut().find(|c| c.name == name) {
            Some(c) => c.value = value,
            None => m.counters.push(CounterSample {
                name: name.to_string(),
                value,
            }),
        }
    }

    /// The message `check` panics with.
    fn panic_text(check: impl FnOnce()) -> String {
        let err = std::panic::catch_unwind(std::panic::AssertUnwindSafe(check))
            .expect_err("the checker must fire");
        err.downcast_ref::<String>().cloned().unwrap_or_default()
    }

    #[test]
    fn every_broken_serve_identity_is_named_in_the_panic() {
        let (config, good) = good_run();
        assert!(serve_violations(&config, &good).0.is_empty());
        type Break = (&'static str, fn(&mut ServeReport));
        let breaks: [Break; 12] = [
            ("offered == completed + shed", |r| {
                r.completed += 1;
                r.class_completed[0] += 1;
                bump(&mut r.metrics, "serve.completed");
            }),
            ("report.offered == serve.offered", |r| {
                bump(&mut r.metrics, "serve.offered")
            }),
            ("report.completed == serve.completed", |r| {
                bump(&mut r.metrics, "serve.completed")
            }),
            ("report.shed == serve.shed", |r| {
                bump(&mut r.metrics, "serve.shed");
                bump(&mut r.metrics, "serve.gpu0.shed");
            }),
            ("sum(class_completed) == completed", |r| {
                r.class_completed[1] += 1
            }),
            ("sum(class_shed) == shed", |r| r.class_shed[2] += 1),
            ("sum(serve.gpu{g}.shed) == serve.shed", |r| {
                bump(&mut r.metrics, "serve.gpu3.shed")
            }),
            ("routed + spilled == offered", |r| r.spilled += 1),
            ("serve.replan.mid_batch_commits == 0", |r| {
                bump(&mut r.metrics, "serve.replan.mid_batch_commits")
            }),
            ("coalesced_msgs + dedup_hits <= remote.reads", |r| {
                bump(&mut r.metrics, "serve.remote.dedup_hits")
            }),
            ("reused <= sum(cache.gpu{g}.feature_misses)", |r| {
                let misses = gpu_sum(&r.metrics, "cache.gpu", ".feature_misses");
                set(&mut r.metrics, "serve.landing.reused", misses + 1)
            }),
            (
                "prefetch_hits + late_stalls + cold_reads + remote.reads <= misses - reused",
                |r| {
                    let reused = r.metrics.counter("serve.landing.reused");
                    let room = gpu_sum(&r.metrics, "cache.gpu", ".feature_misses") - reused;
                    set(&mut r.metrics, "serve.store.cold_reads", room + 1)
                },
            ),
        ];
        for (identity, broken) in breaks {
            let mut r = good.clone();
            broken(&mut r);
            assert_eq!(serve_violations(&config, &r).0.len(), 1, "{identity}");
            let text = panic_text(|| check_serve(&config, &r));
            assert!(text.contains(identity), "`{identity}` not named in: {text}");
        }
        let mut r = good;
        r.spilled += 1;
        r.class_shed[0] += 1;
        let text = panic_text(|| check_serve(&config, &r));
        assert!(text.contains("routed + spilled") && text.contains("sum(class_shed)"));
    }

    #[test]
    fn every_broken_fleet_identity_is_named_in_the_panic() {
        let (_, member) = good_run();
        let members = [6, 4].map(|offered| ServeReport {
            offered,
            ..member.clone()
        });
        let mut good = Snapshot::default();
        for (name, times) in [
            ("fleet.offered", 10),
            ("fleet.completed", 7),
            ("fleet.shed", 3),
            ("fleet.server0.routed", 5),
            ("fleet.server0.spilled", 1),
            ("fleet.server1.routed", 4),
            ("fleet.mut.applied", 6),
            ("fleet.mut.notify_msgs", 6),
            ("fleet.server0.mut_owned", 2),
            ("fleet.server1.mut_owned", 4),
        ] {
            (0..times).for_each(|_| bump(&mut good, name));
        }
        assert!(fleet_violations(&good, &members).0.is_empty());
        for (identity, counter) in [
            ("fleet.offered == completed + shed", "fleet.shed"),
            (
                "sum(routed + spilled) == fleet.offered",
                "fleet.server1.spilled",
            ),
            (
                "sum(mut_owned) == fleet.mut.applied",
                "fleet.server0.mut_owned",
            ),
            ("notify_msgs == applied * (n - 1)", "fleet.mut.notify_msgs"),
        ] {
            let mut m = good.clone();
            bump(&mut m, counter);
            assert_eq!(fleet_violations(&m, &members).0.len(), 1, "{identity}");
            let text = panic_text(|| check_fleet(&m, &members));
            assert!(text.contains(identity), "`{identity}` not named in: {text}");
        }
        let mut short = members.clone();
        short[0].offered -= 1;
        let text = panic_text(|| check_fleet(&good, &short));
        assert!(text.contains("sum(member offered) == fleet.offered"));
    }
}
