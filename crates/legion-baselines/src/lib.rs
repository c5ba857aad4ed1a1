//! Baseline GNN-system models: DGL (UVA), GNNLab, PaGraph, PaGraph-plus
//! and Quiver-plus.
//!
//! Each baseline is a *setup builder*: it decides where topology and
//! features live, which GPU trains which seeds, what each GPU caches, and
//! which execution schedule applies — producing a [`SystemSetup`] the
//! shared epoch runner (in `legion-core`) executes and meters. The
//! builders allocate real (simulated) device memory, so the paper's OOM
//! outcomes (GNNLab on UKS/DGX-V100, PaGraph's CPU OOM; Figure 8) fall
//! out of the same capacity checks.
//!
//! * [`dgl`] — no cache, topology + features in CPU, UVA access, serial
//!   execution,
//! * [`gnnlab`] — factored design (dedicated sampling GPUs holding the
//!   full topology), globally-replicated pre-sampling-hotness feature
//!   cache,
//! * [`pagraph`] — self-reliant partitions with L-hop extension, CPU
//!   sampling, in-degree feature cache; plus the PaGraph-plus variant
//!   (edge-cut partitioning + pre-sampling hotness),
//! * [`quiver`] — NVLink-clique hash cache replicated across cliques, and
//! * [`policy`] — the in-degree hotness metric and Quiver's hashed
//!   placement.
//!
//! GNNLab and PaGraph expose their cache design on its own
//! (`cache_design`), which the figure experiments run inside the Legion
//! runtime; `setup` adds the system's split, gate or schedule. Every
//! builder pre-samples through [`BuildContext::presample`], checks host
//! memory through [`BuildContext::host_gate`] and fills its caches
//! through `legion_cache::fill`.
//!
//! # Examples
//!
//! ```
//! use legion_baselines::{dgl, BuildContext, ScheduleKind};
//! use legion_graph::dataset::spec_by_name;
//! use legion_hw::ServerSpec;
//!
//! let dataset = spec_by_name("PR").unwrap().instantiate(2000, 1);
//! let server = ServerSpec::dgx_v100().build();
//! let ctx = BuildContext {
//!     dataset: &dataset,
//!     server: &server,
//!     fanouts: vec![25, 10],
//!     batch_size: 128,
//!     presample_epochs: 1,
//!     reserved_per_gpu: 0,
//!     cache_budget_override: None,
//!     seed: 1,
//! };
//! let setup = dgl::setup(&ctx).unwrap();
//! assert_eq!(setup.schedule, ScheduleKind::Serial);
//! assert!(setup.layout.cliques.is_empty()); // DGL caches nothing.
//! ```

pub mod dgl;
pub mod gnnlab;
pub mod pagraph;
pub mod policy;
pub mod quiver;

use legion_graph::{Dataset, VertexId};
use legion_hw::{GpuId, HwError, MultiGpuServer};
use legion_sampling::access::{CacheLayout, TopologyPlacement};
use legion_sampling::{KHopSampler, PresampleOutput};

/// How the system schedules sampling vs. training.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ScheduleKind {
    /// Legion-style inter-batch pipeline on every GPU.
    Pipelined,
    /// Serial prepare-then-train per batch (DGL).
    Serial,
    /// GNNLab's factored design: dedicated sampler and trainer GPUs.
    Factored {
        /// GPUs doing nothing but sampling (hold the full topology).
        samplers: Vec<GpuId>,
        /// GPUs doing nothing but training (hold the feature cache).
        trainers: Vec<GpuId>,
    },
    /// CPU worker threads do the sampling (PaGraph).
    CpuSampling,
}

/// Everything the epoch runner needs to execute one system.
#[derive(Debug)]
pub struct SystemSetup {
    /// Display name ("DGL", "GNNLab", ...).
    pub name: String,
    /// Cache layout (may be empty).
    pub layout: CacheLayout,
    /// Per-GPU training seed tablets (indexed by GPU id; samplers in a
    /// factored design have empty tablets).
    pub tablets: Vec<Vec<VertexId>>,
    /// Where the full topology lives for sampling.
    pub topology_placement: TopologyPlacement,
    /// Execution schedule.
    pub schedule: ScheduleKind,
}

/// Why a system could not be set up — the paper's "x" marks.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SystemError {
    /// A GPU allocation failed.
    GpuOom(HwError),
    /// Host memory exceeded (PaGraph's redundant storage, DGL on graphs
    /// larger than CPU memory).
    CpuOom {
        /// Bytes the system would need.
        needed: u64,
        /// Host bytes available.
        available: u64,
    },
    /// The configuration is impossible (e.g. factored design with < 2
    /// GPUs).
    Infeasible(String),
}

impl From<HwError> for SystemError {
    fn from(e: HwError) -> Self {
        SystemError::GpuOom(e)
    }
}

impl std::fmt::Display for SystemError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SystemError::GpuOom(e) => write!(f, "GPU OOM: {e}"),
            SystemError::CpuOom { needed, available } => {
                write!(f, "CPU OOM: need {needed} bytes, have {available}")
            }
            SystemError::Infeasible(why) => write!(f, "infeasible: {why}"),
        }
    }
}

impl std::error::Error for SystemError {}

/// Shared inputs for all setup builders.
#[derive(Clone)]
pub struct BuildContext<'a> {
    /// The dataset (graph + features + training set).
    pub dataset: &'a Dataset,
    /// The simulated server whose memory/counters are used.
    pub server: &'a MultiGpuServer,
    /// Sampling fan-outs (outermost first).
    pub fanouts: Vec<usize>,
    /// Mini-batch size.
    pub batch_size: usize,
    /// Pre-sampling epochs for hotness-based policies.
    pub presample_epochs: usize,
    /// Bytes reserved per GPU for model/intermediate buffers.
    pub reserved_per_gpu: u64,
    /// When set, caps the per-GPU cache budget (used by the fixed
    /// cache-ratio experiments, e.g. "5% |V| on every GPU" in Figs. 2/3/9).
    pub cache_budget_override: Option<u64>,
    /// RNG seed.
    pub seed: u64,
}

impl<'a> BuildContext<'a> {
    /// Per-GPU cache budget after the training reservation (or the
    /// explicit override when one is set).
    pub fn per_gpu_cache_budget(&self) -> u64 {
        let free = self
            .server
            .spec()
            .gpu_memory
            .saturating_sub(self.reserved_per_gpu);
        match self.cache_budget_override {
            Some(cap) => cap.min(free),
            None => free,
        }
    }

    /// Splits the training set evenly across `k` GPUs by hash (the
    /// global-shuffle systems' effective per-GPU seed assignment).
    pub fn even_tablets(&self, k: usize) -> Vec<Vec<VertexId>> {
        legion_partition::hash::hash_split(&self.dataset.train_vertices, k)
    }

    /// Pre-samples `tablets[i]` on `gpus[i]` with this context's fan-outs,
    /// batch size, epochs and seed: the access hotness every
    /// hotness-ranked cache design starts from (§4.2.2 S1).
    pub fn presample(&self, gpus: &[GpuId], tablets: &[Vec<VertexId>]) -> PresampleOutput {
        legion_sampling::presample(
            &self.dataset.graph,
            &self.dataset.features,
            self.server,
            gpus,
            tablets,
            &KHopSampler::new(self.fanouts.clone()),
            self.batch_size,
            self.presample_epochs,
            self.seed,
        )
    }

    /// Bytes of the dataset as stored once in host memory: topology plus
    /// features.
    pub fn dataset_bytes(&self) -> u64 {
        self.dataset.topology_bytes() + self.dataset.feature_bytes()
    }

    /// The host-memory gate: fails with [`SystemError::CpuOom`] when the
    /// system needs more than the server's host memory.
    pub fn host_gate(&self, needed: u64) -> Result<(), SystemError> {
        let available = self.server.spec().cpu_memory;
        if needed > available {
            return Err(SystemError::CpuOom { needed, available });
        }
        Ok(())
    }
}
