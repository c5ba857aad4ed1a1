//! Open-loop serving workload generation: Poisson arrivals and skewed,
//! optionally drifting target-vertex distributions.
//!
//! Serving traffic differs from training epochs in two ways the rest of
//! the repo never exercises: requests arrive *when they arrive* (the
//! system cannot slow the clock down to keep up), and the popularity of
//! target vertices moves over time (trending entities), which is exactly
//! the regime where a statically planned hotness cache decays and a
//! dynamic cache earns its replacement overhead.
//!
//! Requests also carry a [`PriorityClass`]. Class assignment draws from
//! its *own* seeded RNG stream ([`ClassSampler`]), and a classed target
//! draw consumes exactly one uniform from the main stream either way —
//! so a class mix leaves the arrival/target draw order of the
//! all-`Standard` stream intact (pinned by
//! `class_mix_preserves_main_stream_draw_order`), and
//! `Interactive` traffic can be drawn from a hotter Zipf head without
//! disturbing the other classes' targets.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use legion_graph::generate::Zipf;
use legion_graph::VertexId;
use legion_router::{PriorityClass, QueuedRequest, CLASS_COUNT};

/// One inference request: classify `target` using its sampled
/// multi-hop neighborhood.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Request {
    /// Monotone request id (also the round-robin routing key).
    pub id: u64,
    /// Arrival time in simulated seconds from the start of the run.
    pub arrival: f64,
    /// The vertex whose label is being requested.
    pub target: VertexId,
    /// The request's QoS priority class.
    pub class: PriorityClass,
}

impl QueuedRequest for Request {
    fn arrival(&self) -> f64 {
        self.arrival
    }
    fn class(&self) -> PriorityClass {
        self.class
    }
}

/// Draws each request's [`PriorityClass`] from a configurable mix,
/// using a dedicated RNG stream so class assignment never perturbs the
/// main workload stream's draw order.
#[derive(Debug, Clone)]
pub struct ClassSampler {
    cdf: [f64; CLASS_COUNT],
    rng: StdRng,
}

impl ClassSampler {
    /// Salt XORed into the seed so the class stream is independent of
    /// every other stream derived from the same master seed.
    const STREAM_SALT: u64 = 0xc1a5_5e5a_11de_7e4a;

    /// A sampler over `mix` (relative class weights, normalized here)
    /// seeded from the run's master `seed`.
    ///
    /// # Panics
    ///
    /// Panics if the mix has a negative entry or sums to zero.
    pub fn new(mix: [f64; CLASS_COUNT], seed: u64) -> Self {
        assert!(
            mix.iter().all(|&w| w >= 0.0),
            "class mix weights must be non-negative"
        );
        let total: f64 = mix.iter().sum();
        assert!(total > 0.0, "class mix must have positive total weight");
        let mut cdf = [0.0; CLASS_COUNT];
        let mut acc = 0.0;
        for (i, &w) in mix.iter().enumerate() {
            acc += w / total;
            cdf[i] = acc;
        }
        Self {
            cdf,
            rng: StdRng::seed_from_u64(seed ^ Self::STREAM_SALT),
        }
    }

    /// Draws the next request's class.
    pub fn sample(&mut self) -> PriorityClass {
        let u: f64 = self.rng.gen();
        for (i, &c) in self.cdf.iter().enumerate() {
            if u < c {
                return PriorityClass::from_index(i);
            }
        }
        PriorityClass::from_index(CLASS_COUNT - 1)
    }
}

/// The inter-arrival process of an open-loop client population.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ArrivalProcess {
    /// Memoryless arrivals at `rate` requests per simulated second.
    Poisson {
        /// Mean arrival rate, requests/s.
        rate: f64,
    },
}

impl ArrivalProcess {
    /// The long-run mean arrival rate (offered load).
    pub fn mean_rate(&self) -> f64 {
        let ArrivalProcess::Poisson { rate } = *self;
        rate
    }

    /// Draws the exponential gap to the next arrival (deterministic for
    /// a seeded RNG).
    pub fn next_gap<R: Rng + ?Sized>(&self, rng: &mut R) -> f64 {
        let rate = self.mean_rate();
        assert!(rate > 0.0, "arrival rate must be positive");
        let u: f64 = rng.gen();
        -(1.0 - u).ln() / rate
    }

    /// The same process with its rate scaled by `k` — how a load sweep
    /// turns one workload into a family of offered loads.
    pub fn scaled(&self, k: f64) -> Self {
        ArrivalProcess::Poisson {
            rate: self.mean_rate() * k,
        }
    }
}

/// Zipf-skewed target-vertex sampler whose hot set drifts: every
/// `drift_period` issued requests the rank→vertex mapping rotates by
/// `drift_stride` positions, so yesterday's head becomes tomorrow's tail.
#[derive(Debug, Clone)]
pub struct TargetSampler {
    zipf: Zipf,
    exponent: f64,
    /// Hotter Zipf for `Interactive` targets (class-correlated skew);
    /// `None` keeps every class on the base distribution.
    hot: Option<Zipf>,
    targets: Vec<VertexId>,
    drift_period: usize,
    drift_stride: usize,
    issued: usize,
}

impl TargetSampler {
    /// A sampler over `targets` with Zipf exponent `exponent`.
    /// `drift_period == 0` disables drift.
    ///
    /// # Panics
    ///
    /// Panics if `targets` is empty.
    pub fn new(
        targets: Vec<VertexId>,
        exponent: f64,
        drift_period: usize,
        drift_stride: usize,
    ) -> Self {
        assert!(!targets.is_empty(), "need at least one serving target");
        Self {
            zipf: Zipf::new(targets.len(), exponent),
            exponent,
            hot: None,
            targets,
            drift_period,
            drift_stride,
            issued: 0,
        }
    }

    /// Enables class-correlated skew: `Interactive` targets draw from a
    /// Zipf with exponent `boost`× the base exponent (a hotter head),
    /// while other classes keep the base distribution.
    ///
    /// # Panics
    ///
    /// Panics if `boost < 1.0` — interactive traffic is by definition
    /// at least as head-heavy as the aggregate.
    pub fn with_interactive_boost(mut self, boost: f64) -> Self {
        assert!(boost >= 1.0, "interactive_boost must be >= 1.0");
        self.hot = Some(Zipf::new(self.targets.len(), self.exponent * boost));
        self
    }

    /// The current rotation offset of the rank→vertex mapping.
    pub fn offset(&self) -> usize {
        self.issued
            .checked_div(self.drift_period)
            .map_or(0, |steps| steps * self.drift_stride % self.targets.len())
    }

    /// Draws the next target vertex and advances the drift clock
    /// (the base distribution — equivalent to
    /// [`next_for_class`](Self::next_for_class) with `Standard`).
    pub fn next<R: Rng + ?Sized>(&mut self, rng: &mut R) -> VertexId {
        self.next_for_class(PriorityClass::Standard, rng)
    }

    /// Draws the next target vertex for a request of `class` and
    /// advances the drift clock. Exactly one uniform is consumed from
    /// `rng` regardless of class, so class mixing never shifts the main
    /// stream's draw order; `Interactive` maps that uniform through the
    /// boosted Zipf when class skew is enabled.
    pub fn next_for_class<R: Rng + ?Sized>(
        &mut self,
        class: PriorityClass,
        rng: &mut R,
    ) -> VertexId {
        let rank = match (&self.hot, class) {
            (Some(hot), PriorityClass::Interactive) => hot.sample(rng),
            _ => self.zipf.sample(rng),
        };
        let v = self.targets[(rank + self.offset()) % self.targets.len()];
        self.issued += 1;
        v
    }
}

/// Generates `num_requests` open-loop requests starting at time 0, with
/// per-request classes drawn from `classes`. The main `rng` stream sees
/// one gap and one target draw per request whatever the mix — classes
/// come from the sampler's own side stream — so arrival times never
/// depend on the mix, and every non-`Interactive` request keeps the
/// target the all-`Standard` stream of the same seed would have drawn.
pub fn generate_workload_classed<R: Rng + ?Sized>(
    arrival: &ArrivalProcess,
    targets: &mut TargetSampler,
    classes: &mut ClassSampler,
    num_requests: usize,
    rng: &mut R,
) -> Vec<Request> {
    let mut now = 0.0f64;
    let mut out = Vec::with_capacity(num_requests);
    for id in 0..num_requests as u64 {
        now += arrival.next_gap(rng);
        let class = classes.sample();
        out.push(Request {
            id,
            arrival: now,
            target: targets.next_for_class(class, rng),
            class,
        });
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn poisson_mean_gap_matches_rate() {
        let p = ArrivalProcess::Poisson { rate: 100.0 };
        let mut rng = StdRng::seed_from_u64(1);
        let n = 20_000;
        let mut now = 0.0;
        for _ in 0..n {
            now += p.next_gap(&mut rng);
        }
        let mean_gap = now / n as f64;
        assert!((mean_gap - 0.01).abs() < 0.001, "mean gap {mean_gap}");
    }

    #[test]
    fn scaling_scales_mean_rate() {
        let p = ArrivalProcess::Poisson { rate: 50.0 };
        assert_eq!(p.scaled(2.0).mean_rate(), 100.0);
    }

    #[test]
    fn zipf_targets_concentrate_on_head() {
        let mut s = TargetSampler::new((100..200).collect(), 1.2, 0, 0);
        let mut rng = StdRng::seed_from_u64(2);
        let mut head = 0usize;
        for _ in 0..5000 {
            if s.next(&mut rng) < 110 {
                head += 1;
            }
        }
        assert!(head > 1500, "head draws {head}");
    }

    #[test]
    fn drift_rotates_the_hot_set() {
        let mut s = TargetSampler::new((0..100).collect(), 1.5, 10, 25);
        let mut rng = StdRng::seed_from_u64(3);
        assert_eq!(s.offset(), 0);
        for _ in 0..10 {
            s.next(&mut rng);
        }
        assert_eq!(s.offset(), 25);
        for _ in 0..30 {
            s.next(&mut rng);
        }
        assert_eq!(s.offset(), 0, "stride wraps around the target list");
    }

    /// The all-`Standard` stream: one class, so nothing is read from
    /// the class sampler's side stream that could change a request.
    fn single_class(
        arrival: &ArrivalProcess,
        targets: &mut TargetSampler,
        num_requests: usize,
        rng: &mut StdRng,
    ) -> Vec<Request> {
        let mut classes = ClassSampler::new([0.0, 1.0, 0.0], 0);
        generate_workload_classed(arrival, targets, &mut classes, num_requests, rng)
    }

    #[test]
    fn workload_is_deterministic_and_time_ordered() {
        let arrival = ArrivalProcess::Poisson { rate: 1000.0 };
        let gen = |seed| {
            let mut targets = TargetSampler::new((0..50).collect(), 1.1, 20, 5);
            let mut rng = StdRng::seed_from_u64(seed);
            single_class(&arrival, &mut targets, 200, &mut rng)
        };
        let a = gen(7);
        let b = gen(7);
        assert_eq!(a, b);
        assert!(a.windows(2).all(|w| w[0].arrival <= w[1].arrival));
        assert_ne!(gen(8), a);
    }

    /// Same-seed snapshot pin: the default all-`Standard` mix gives the
    /// same stream (ids, arrivals, targets) whatever the class sampler
    /// is seeded with — the class draws never touch the main RNG.
    #[test]
    fn default_mix_stream_ignores_the_class_seed() {
        let arrival = ArrivalProcess::Poisson { rate: 800.0 };
        let single = {
            let mut targets = TargetSampler::new((0..64).collect(), 1.2, 15, 7);
            let mut rng = StdRng::seed_from_u64(21);
            single_class(&arrival, &mut targets, 300, &mut rng)
        };
        let classed = {
            let mut targets = TargetSampler::new((0..64).collect(), 1.2, 15, 7);
            let mut classes = ClassSampler::new([0.0, 1.0, 0.0], 21);
            let mut rng = StdRng::seed_from_u64(21);
            generate_workload_classed(&arrival, &mut targets, &mut classes, 300, &mut rng)
        };
        assert_eq!(single, classed);
        assert!(single.iter().all(|r| r.class == PriorityClass::Standard));
    }

    /// A multi-class mix must not perturb the main stream: arrivals are
    /// identical to the all-`Standard` stream's, and every
    /// non-`Interactive` request keeps the exact target that stream
    /// would have drawn (the class and boosted-head draws live on side
    /// streams).
    #[test]
    fn class_mix_preserves_main_stream_draw_order() {
        let arrival = ArrivalProcess::Poisson { rate: 800.0 };
        let single = {
            let mut targets = TargetSampler::new((0..64).collect(), 1.2, 0, 0);
            let mut rng = StdRng::seed_from_u64(33);
            single_class(&arrival, &mut targets, 400, &mut rng)
        };
        let mixed = {
            let mut targets =
                TargetSampler::new((0..64).collect(), 1.2, 0, 0).with_interactive_boost(1.5);
            let mut classes = ClassSampler::new([0.3, 0.4, 0.3], 33);
            let mut rng = StdRng::seed_from_u64(33);
            generate_workload_classed(&arrival, &mut targets, &mut classes, 400, &mut rng)
        };
        let mut saw_all = [false; CLASS_COUNT];
        for (l, m) in single.iter().zip(&mixed) {
            assert_eq!(l.id, m.id);
            assert_eq!(l.arrival, m.arrival, "arrival stream must be untouched");
            saw_all[m.class.index()] = true;
            if m.class != PriorityClass::Interactive {
                assert_eq!(l.target, m.target, "non-interactive targets unchanged");
            }
        }
        assert!(saw_all.iter().all(|&s| s), "mix must produce every class");
    }

    /// Interactive traffic with a boosted head is measurably more
    /// concentrated than the same seed's standard traffic.
    #[test]
    fn interactive_boost_concentrates_the_head() {
        let mut s = TargetSampler::new((0..1000).collect(), 1.1, 0, 0).with_interactive_boost(2.0);
        let mut rng = StdRng::seed_from_u64(5);
        let mut head = [0usize; 2];
        for _ in 0..4000 {
            if s.next_for_class(PriorityClass::Interactive, &mut rng) < 10 {
                head[0] += 1;
            }
            if s.next_for_class(PriorityClass::Standard, &mut rng) < 10 {
                head[1] += 1;
            }
        }
        assert!(
            head[0] > head[1] + 300,
            "boosted head {} must beat base head {}",
            head[0],
            head[1]
        );
    }

    #[test]
    fn class_sampler_is_deterministic_and_respects_mix() {
        let draw = |seed| {
            let mut c = ClassSampler::new([0.25, 0.5, 0.25], seed);
            (0..200).map(|_| c.sample()).collect::<Vec<_>>()
        };
        assert_eq!(draw(9), draw(9));
        assert_ne!(draw(9), draw(10));
        let counts = draw(9).iter().fold([0usize; CLASS_COUNT], |mut acc, c| {
            acc[c.index()] += 1;
            acc
        });
        assert!(
            counts.iter().all(|&n| n > 20),
            "all classes drawn: {counts:?}"
        );
        // A degenerate mix draws only that class.
        let mut only_batch = ClassSampler::new([0.0, 0.0, 3.0], 1);
        assert!((0..50).all(|_| only_batch.sample() == PriorityClass::Batch));
    }
}
