//! Builder-style experiment sessions.
//!
//! An [`Experiment`] describes a sweep declaratively — workloads ×
//! schedulers × CMP design points, plus a scale divisor — and
//! [`Experiment::run`] fans the cross-product into [`RunRecord`]s collected
//! in a [`Report`].  This replaces the hand-rolled sweep loops the seed's
//! figure binaries each carried.
//!
//! There is one executor: [`Experiment::plan`] splits the sweep into groups
//! of points and [`Experiment::run_group`] runs one group.  A sequential
//! run, a parallel run ([`Experiment::parallelism`]) and the `ccs-serve`
//! daemon all execute the same plan through the same `run_group`.

use std::collections::BTreeMap;
use std::sync::Arc;

use ccs_dag::Computation;
use ccs_dag::Dag;
use ccs_runtime::{join, Policy, ThreadPool};
use ccs_sched::spec::{format_spec, parse_spec, SpecParseError};
use ccs_sched::SchedulerSpec;
use ccs_sim::{simulate_batch, simulate_with_engine, CmpConfig, SimEngine};
use ccs_workloads::{BuildCtx, UnknownWorkload, WorkloadRegistry};

use crate::build_cache::Built;
use crate::report::{Report, RunRecord};

/// The quick-mode scale clamp: smoke tests always run at a divisor of at
/// least 256.  Single authority for both [`Experiment::effective_scale`] and
/// [`Options::effective_scale`](crate::Options::effective_scale).
pub fn effective_scale(scale: u64, quick: bool) -> u64 {
    if quick {
        scale.max(256)
    } else {
        scale
    }
}

/// The host's core count (`std::thread::available_parallelism`, 1 when
/// unknown): the default sweep parallelism of [`Experiment`] and of
/// [`Options`](crate::Options).  Read once per process: on Linux the query
/// parses cgroup files, tens of microseconds that a daemon resolving
/// cached requests would otherwise pay per request.  An [`Experiment`]
/// reads it only when it runs, so defining and planning a sweep never
/// pays it.
pub(crate) fn host_cores() -> usize {
    static CORES: std::sync::OnceLock<usize> = std::sync::OnceLock::new();
    *CORES
        .get_or_init(|| std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get))
}

/// Geometry prebuild for one (already scaled) design point: compile the
/// packed [`SetLanes`](ccs_dag::SetLanes) the event engine will look up —
/// one word per line holding its L1, L2 and (when the point has a shared
/// L3) L3 set (DESIGN.md §9 and §12) — and return their heap footprint.
/// The lanes are memoised on the line stream per machine shape, so this is
/// the incremental cost.
fn prebuild_lanes(stream: &ccs_dag::LineStream, config: &CmpConfig) -> u64 {
    let l1 = ccs_dag::CacheGeometry::new(config.l1.line_size, config.l1.num_sets());
    let l2 = ccs_dag::CacheGeometry::new(config.l2.line_size, config.l2.num_sets());
    match &config.l3 {
        Some(l3) => stream
            .geometry_triple(
                l1,
                l2,
                ccs_dag::CacheGeometry::new(l3.line_size, l3.num_sets()),
            )
            .heap_bytes(),
        None => stream.geometry_pair(l1, l2).heap_bytes(),
    }
}

/// Partition a one-core group's schedulers into classes by their exact
/// dispatch order ([`ccs_sched::one_core_order`]): on one core the
/// engines then make the same scheduler calls, so equal orders run
/// identically.  Returns, per scheduler, the index of the first scheduler
/// of its class.  The key is verified from each scheduler's behaviour, not
/// declared, so registry user schedulers share exactly when they really
/// coincide.
fn one_core_classes(dag: &Dag, specs: &[&SchedulerSpec]) -> Vec<usize> {
    let orders: Vec<Vec<ccs_dag::TaskId>> = specs
        .iter()
        .map(|spec| ccs_sched::one_core_order(dag, spec.build().as_mut()))
        .collect();
    (0..specs.len())
        .map(|i| (0..i).find(|&k| orders[k] == orders[i]).unwrap_or(i))
        .collect()
}

/// A serialisable "which workload" value — the workload-axis counterpart of
/// [`SchedulerSpec`].
///
/// The common case is a *registry* spec: a name registered with
/// [`WorkloadRegistry::global`] plus free-form `key=value` parameters,
/// written in the shared spec grammar (`"mergesort"`, `"matmul:n=512"`,
/// `"heat:rows=1024,cols=1024,steps=8"`).  Registry workloads are rebuilt
/// per design point, so task granularity tracks the (scaled) cache.  A
/// *fixed* spec wraps a caller-built computation that is reused as-is at
/// every design point.
///
/// Every workload-accepting entry point takes `impl Into<WorkloadSpec>`, so
/// a registry name (`"mergesort"`, `"matmul:n=512"`) or a fully built spec
/// both work.
#[derive(Clone, Debug)]
pub enum WorkloadSpec {
    /// A named workload built through [`WorkloadRegistry::global`] per
    /// design point.
    Registry {
        /// Registry name (e.g. `"mergesort"`).
        name: String,
        /// `key=value` build parameters passed to the factory.
        params: BTreeMap<String, String>,
    },
    /// A fixed computation, reused as-is at every design point.
    Fixed {
        /// Name used in records.
        name: String,
        /// The computation to simulate.
        comp: Arc<Computation>,
    },
}

impl WorkloadSpec {
    /// A registry workload by name, with no parameters (add some with
    /// [`WorkloadSpec::with_param`]).
    pub fn registry(name: impl Into<String>) -> WorkloadSpec {
        WorkloadSpec::Registry {
            name: name.into(),
            params: BTreeMap::new(),
        }
    }

    /// Attach one `key=value` build parameter (registry specs only; a no-op
    /// on fixed specs).
    pub fn with_param(mut self, key: impl Into<String>, value: impl Into<String>) -> WorkloadSpec {
        if let WorkloadSpec::Registry { params, .. } = &mut self {
            params.insert(key.into(), value.into());
        }
        self
    }

    /// A fixed workload from a caller-built computation.
    pub fn fixed(name: impl Into<String>, comp: Computation) -> WorkloadSpec {
        WorkloadSpec::Fixed {
            name: name.into(),
            comp: Arc::new(comp),
        }
    }

    /// Parse a workload spec string: `"name"` or
    /// `"name:key=value,key=value"` (the shared grammar of
    /// [`ccs_sched::spec`]).
    ///
    /// The name is *not* checked against the registry here — that happens at
    /// build time (or up front in `Options`), so specs can be parsed before
    /// their workload is registered.
    pub fn parse(input: &str) -> Result<WorkloadSpec, SpecParseError> {
        let parsed = parse_spec(input)?;
        Ok(WorkloadSpec::Registry {
            name: parsed.name,
            params: parsed.params.into_iter().collect(),
        })
    }

    /// Parse *and validate* a workload spec string against the global
    /// [`WorkloadRegistry`], returning a typed
    /// [`SpecError`](ccs_sched::spec::SpecError) on either failure.
    ///
    /// This is the entry point for untrusted input (daemon requests,
    /// config files): unlike [`WorkloadSpec::parse`] it also rejects
    /// unregistered names, and unlike [`WorkloadSpec::build`] it never
    /// panics.
    pub fn resolve(input: &str) -> Result<WorkloadSpec, ccs_sched::spec::SpecError> {
        let spec = WorkloadSpec::parse(input)?;
        let registry = WorkloadRegistry::global();
        if !registry.contains(spec.name()) {
            return Err(ccs_sched::spec::SpecError::unknown(
                "workload",
                spec.name(),
                registry.names(),
            ));
        }
        Ok(spec)
    }

    /// The base workload name (without parameters).
    pub fn name(&self) -> &str {
        match self {
            WorkloadSpec::Registry { name, .. } => name,
            WorkloadSpec::Fixed { name, .. } => name,
        }
    }

    /// The label used in records and reports: the canonical spec string
    /// (`"matmul:n=512"`, parameters in sorted key order), or the plain name
    /// for fixed workloads.  [`WorkloadSpec::parse`] of a registry label
    /// returns an equal spec.
    pub fn label(&self) -> String {
        match self {
            WorkloadSpec::Registry { name, params } => {
                format_spec(name, params.iter().map(|(k, v)| (k.as_str(), v.as_str())))
            }
            WorkloadSpec::Fixed { name, .. } => name.clone(),
        }
    }

    /// Build (or reuse) the computation for one design point.
    ///
    /// # Panics
    /// Panics when a registry name is not registered (with the registry's
    /// did-you-mean message); use [`WorkloadSpec::try_build`] to handle that
    /// case.
    pub fn build(&self, scale: u64, l2_bytes: u64, cores: usize) -> Arc<Computation> {
        self.try_build(scale, l2_bytes, cores)
            .unwrap_or_else(|e| panic!("{e}"))
    }

    /// Build through the global registry, reporting unknown names.
    pub fn try_build(
        &self,
        scale: u64,
        l2_bytes: u64,
        cores: usize,
    ) -> Result<Arc<Computation>, UnknownWorkload> {
        match self {
            WorkloadSpec::Registry { name, params } => WorkloadRegistry::global()
                .build(name, &build_ctx(params, scale, l2_bytes, cores))
                .map(Arc::new),
            WorkloadSpec::Fixed { comp, .. } => Ok(Arc::clone(comp)),
        }
    }

    /// The build-cache key of one design point: the factory's
    /// [`WorkloadFactory::key`](ccs_workloads::WorkloadFactory::key) for a
    /// registry spec, `None` for a fixed one (never cached).
    ///
    /// # Panics
    /// Panics when a registry name is not registered, as
    /// [`WorkloadSpec::build`] does.
    pub fn build_key(&self, scale: u64, l2_bytes: u64, cores: usize) -> Option<String> {
        match self {
            WorkloadSpec::Registry { name, params } => Some(
                WorkloadRegistry::global()
                    .key(name, &build_ctx(params, scale, l2_bytes, cores))
                    .unwrap_or_else(|e| panic!("{e}")),
            ),
            WorkloadSpec::Fixed { .. } => None,
        }
    }
}

/// The factory context of a registry spec at one design point.
fn build_ctx(
    params: &BTreeMap<String, String>,
    scale: u64,
    l2_bytes: u64,
    cores: usize,
) -> BuildCtx {
    let mut ctx = BuildCtx::new(scale, l2_bytes, cores);
    ctx.params = params.clone();
    ctx
}

impl PartialEq for WorkloadSpec {
    /// Registry specs compare by name and parameters; fixed specs by name
    /// and computation identity (same `Arc`).
    fn eq(&self, other: &WorkloadSpec) -> bool {
        match (self, other) {
            (
                WorkloadSpec::Registry {
                    name: a,
                    params: pa,
                },
                WorkloadSpec::Registry {
                    name: b,
                    params: pb,
                },
            ) => a == b && pa == pb,
            (
                WorkloadSpec::Fixed { name: a, comp: ca },
                WorkloadSpec::Fixed { name: b, comp: cb },
            ) => a == b && Arc::ptr_eq(ca, cb),
            _ => false,
        }
    }
}

impl std::fmt::Display for WorkloadSpec {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.label())
    }
}

impl From<&str> for WorkloadSpec {
    /// Parse via [`WorkloadSpec::parse`].
    ///
    /// # Panics
    /// Panics when the string does not match the spec grammar; use
    /// [`WorkloadSpec::parse`] to handle that case.
    fn from(spec: &str) -> WorkloadSpec {
        WorkloadSpec::parse(spec).unwrap_or_else(|e| panic!("{e}"))
    }
}

impl From<String> for WorkloadSpec {
    /// Parse via [`WorkloadSpec::parse`] (see `From<&str>`).
    fn from(spec: String) -> WorkloadSpec {
        WorkloadSpec::from(spec.as_str())
    }
}

impl From<&WorkloadSpec> for WorkloadSpec {
    fn from(spec: &WorkloadSpec) -> WorkloadSpec {
        spec.clone()
    }
}

/// Core counts accepted by [`Experiment::cores`]: a single count, a slice, an
/// array, a `Vec`, or anything iterable.
pub trait CoreSelection {
    /// The selected core counts.
    fn core_counts(self) -> Vec<usize>;
}

impl CoreSelection for usize {
    fn core_counts(self) -> Vec<usize> {
        vec![self]
    }
}

impl<const N: usize> CoreSelection for [usize; N] {
    fn core_counts(self) -> Vec<usize> {
        self.to_vec()
    }
}

impl CoreSelection for &[usize] {
    fn core_counts(self) -> Vec<usize> {
        self.to_vec()
    }
}

impl CoreSelection for Vec<usize> {
    fn core_counts(self) -> Vec<usize> {
        self
    }
}

impl CoreSelection for std::ops::Range<usize> {
    fn core_counts(self) -> Vec<usize> {
        self.collect()
    }
}

/// A declarative sweep: workloads × schedulers × CMP design points.
///
/// ```
/// use ccs_experiment::Experiment;
///
/// let report = Experiment::new("mergesort")
///     .cores(8)
///     .scale(512)
///     .schedulers(["pdf", "ws"])
///     .run();
/// assert_eq!(report.len(), 2);
/// let pdf = report.for_scheduler("pdf").next().unwrap();
/// let ws = report.for_scheduler("ws").next().unwrap();
/// assert!(pdf.l2_misses <= ws.l2_misses, "PDF shares the cache constructively");
/// ```
#[derive(Clone)]
pub struct Experiment {
    name: String,
    workloads: Vec<WorkloadSpec>,
    schedulers: Vec<SchedulerSpec>,
    configs: Vec<CmpConfig>,
    scale: u64,
    quick: bool,
    baseline: bool,
    /// `None` = one thread per host core.
    parallelism: Option<usize>,
    engine: SimEngine,
}

impl Experiment {
    /// An experiment over one workload (more can be added with
    /// [`Experiment::workload`]).
    pub fn new(workload: impl Into<WorkloadSpec>) -> Experiment {
        let workload = workload.into();
        Experiment::named(workload.name()).workload(workload)
    }

    /// An experiment with no workloads yet, named for its report.
    pub fn named(name: impl Into<String>) -> Experiment {
        Experiment {
            name: name.into(),
            workloads: Vec::new(),
            schedulers: Vec::new(),
            configs: Vec::new(),
            scale: 1,
            quick: false,
            baseline: true,
            parallelism: None,
            engine: SimEngine::default(),
        }
    }

    /// Set the report name.
    pub fn name(mut self, name: impl Into<String>) -> Experiment {
        self.name = name.into();
        self
    }

    /// Add one workload.
    pub fn workload(mut self, workload: impl Into<WorkloadSpec>) -> Experiment {
        self.workloads.push(workload.into());
        self
    }

    /// Add several workloads.
    pub fn workloads<W: Into<WorkloadSpec>>(
        mut self,
        workloads: impl IntoIterator<Item = W>,
    ) -> Experiment {
        self.workloads.extend(workloads.into_iter().map(Into::into));
        self
    }

    /// Add the paper's default (Table 2) configuration for each selected core
    /// count: `.cores(8)`, `.cores([1, 2, 4, 8])`, ….
    ///
    /// # Panics
    /// Panics if a core count has no default configuration (the defaults
    /// cover 1–32 cores in powers of two).
    pub fn cores(mut self, selection: impl CoreSelection) -> Experiment {
        for count in selection.core_counts() {
            let cfg = CmpConfig::default_with_cores(count)
                .unwrap_or_else(|| panic!("no default CMP configuration with {count} cores"));
            self.configs.push(cfg);
        }
        self
    }

    /// Add one explicit design point.
    pub fn config(mut self, config: CmpConfig) -> Experiment {
        self.configs.push(config);
        self
    }

    /// Add several explicit design points (e.g.
    /// [`CmpConfig::single_tech_45nm`]).
    pub fn configs(mut self, configs: impl IntoIterator<Item = CmpConfig>) -> Experiment {
        self.configs.extend(configs);
        self
    }

    /// Add one scheduler.
    pub fn scheduler(mut self, scheduler: impl Into<SchedulerSpec>) -> Experiment {
        self.schedulers.push(scheduler.into());
        self
    }

    /// Add several schedulers: registry names (`"pdf"`, `"ws-rand@7"`) or
    /// full specs.
    pub fn schedulers<S: Into<SchedulerSpec>>(
        mut self,
        schedulers: impl IntoIterator<Item = S>,
    ) -> Experiment {
        self.schedulers
            .extend(schedulers.into_iter().map(Into::into));
        self
    }

    /// Divide the paper's input sizes *and* all cache capacities by `scale`,
    /// preserving every capacity ratio (1 = the paper's sizes).
    pub fn scale(mut self, scale: u64) -> Experiment {
        self.scale = scale.max(1);
        self
    }

    /// Quick mode: clamp the scale divisor to at least 256 so smoke tests
    /// stay fast (the seed harness's `--quick` semantics).
    pub fn quick(mut self, quick: bool) -> Experiment {
        self.quick = quick;
        self
    }

    /// Whether to also run a 1-core sequential baseline per workload ×
    /// design point and record speedups (default: on).
    pub fn sequential_baseline(mut self, baseline: bool) -> Experiment {
        self.baseline = baseline;
        self
    }

    /// Fan the groups of [`Experiment::plan`] (builds and simulations) across
    /// up to `n` worker threads of a `ccs-runtime` fork-join pool (our own
    /// work-stealing runtime — the harness dogfoods the system it studies).
    /// The default is the host's core count
    /// (`std::thread::available_parallelism`); `1` runs sequentially on the
    /// calling thread.
    ///
    /// Record order — and therefore the report's JSON — is byte-identical to
    /// a sequential run: every run is deterministic and records are placed
    /// by cross-product position, not completion order.
    ///
    /// [`Experiment::run`] may be called from anywhere, including from a job
    /// already running on a `ccs-runtime` pool: off a pool it runs on a
    /// private pool of `min(n, groups)` threads, on a pool worker it forks
    /// onto the caller's pool instead of installing a second one.
    pub fn parallelism(mut self, n: usize) -> Experiment {
        self.parallelism = Some(n.max(1));
        self
    }

    /// Select the simulator engine (default: the event-driven production
    /// engine).  [`SimEngine::Reference`] runs the retained cycle-stepper —
    /// metrics-identical but much slower; the bench harness uses it to
    /// measure the event-driven speedup.  [`SimEngine::Batch`] plans the
    /// sweep as [`Experiment::batch_groups`] so points differing only in
    /// latencies share one recorded pass — the report stays byte-identical
    /// to the event engine's.
    pub fn engine(mut self, engine: SimEngine) -> Experiment {
        self.engine = engine;
        self
    }

    /// The pool size a run fans out over: [`Experiment::parallelism`], or
    /// the host's core count when it was not set.
    fn threads(&self) -> usize {
        self.parallelism.unwrap_or_else(host_cores)
    }

    /// The scale divisor runs will actually use (after `quick` clamping).
    pub fn effective_scale(&self) -> u64 {
        effective_scale(self.scale, self.quick)
    }

    /// The schedulers a run will actually use: the ones added with
    /// [`Experiment::schedulers`], or the defaults (PDF and WS) when none
    /// were.  One [`RunRecord`] is produced per sweep point × resolved
    /// scheduler, in this order.
    pub fn resolved_schedulers(&self) -> Vec<SchedulerSpec> {
        if self.schedulers.is_empty() {
            vec![SchedulerSpec::new("pdf"), SchedulerSpec::new("ws")]
        } else {
            self.schedulers.clone()
        }
    }

    /// The design points a run will actually use: the ones added with
    /// [`Experiment::cores`]/[`Experiment::configs`], or the paper's 8-core
    /// default when none were.
    pub fn resolved_configs(&self) -> Vec<CmpConfig> {
        if self.configs.is_empty() {
            vec![CmpConfig::default_with_cores(8).expect("8-core default exists")]
        } else {
            self.configs.clone()
        }
    }

    /// The resolved workload × design-point cross product, in report order
    /// (workload-major).  Each point yields one record per
    /// [`Experiment::resolved_schedulers`] entry; [`Experiment::plan`]
    /// groups these points into the units [`Experiment::run_group`]
    /// executes.
    pub fn sweep_points(&self) -> Vec<SweepPoint> {
        let configs = self.resolved_configs();
        let mut points = Vec::with_capacity(self.workloads.len() * configs.len());
        for workload in &self.workloads {
            for config in &configs {
                points.push(SweepPoint {
                    index: points.len(),
                    workload: workload.clone(),
                    config: config.clone(),
                });
            }
        }
        points
    }

    /// Partition [`Experiment::sweep_points`] into batchable groups: points
    /// sharing a workload and a machine shape
    /// ([`ccs_sim::batch::same_machine_shape`] on the *scaled* configs —
    /// core count and both cache geometries equal, latency axes free)
    /// land in one group and can share a single recorded pass under the
    /// batch engine.  Groups are ordered by first appearance and preserve
    /// point order within, so scattering each point's records back by
    /// [`SweepPoint::index`] reproduces report order exactly.  Points that
    /// batch with nothing form singleton groups.
    pub fn batch_groups(&self) -> Vec<Vec<SweepPoint>> {
        let scale = self.effective_scale();
        let mut groups: Vec<Vec<SweepPoint>> = Vec::new();
        for point in self.sweep_points() {
            let scaled = point.config.scaled(scale);
            let slot = groups.iter_mut().find(|group| {
                let head = &group[0];
                head.workload == point.workload
                    && ccs_sim::batch::same_machine_shape(&head.config.scaled(scale), &scaled)
            });
            match slot {
                Some(group) => group.push(point),
                None => groups.push(vec![point]),
            }
        }
        groups
    }

    /// The units of work a run executes, each one [`Experiment::run_group`]
    /// call: [`Experiment::batch_groups`] under [`SimEngine::Batch`], one
    /// single-point group per sweep point under the other engines.  Every
    /// sweep point appears in exactly one group.  [`Experiment::run`], a
    /// parallel run and the `ccs-serve` daemon all execute this plan.
    pub fn plan(&self) -> Vec<Vec<SweepPoint>> {
        if self.engine == SimEngine::Batch {
            self.batch_groups()
        } else {
            self.sweep_points().into_iter().map(|p| vec![p]).collect()
        }
    }

    /// Run one group of [`Experiment::plan`], returning each point's records
    /// in resolved-scheduler order — byte-identical to the corresponding
    /// slice of [`Experiment::run`]'s report (every simulation is
    /// deterministic).
    ///
    /// The build, the geometry prebuild and the footprint metrics are shared
    /// by the whole group.  Registry builders are deterministic functions of
    /// what their factory reads from the design point
    /// ([`WorkloadSpec::build_key`]), so each distinct computation (and its
    /// DAG) is fetched through the **process-global build cache**
    /// ([`crate::build_cache`]) and shared by every point, sweep, repeat
    /// trial and daemon request of the process that resolves to it — the
    /// 2-core and 8-core points of a hashjoin sweep over one L2 share one
    /// build.  Caller-built `Fixed` computations share their `Arc`'d trace
    /// arena but re-derive the DAG.
    ///
    /// Each scheduler is one simulation of the group: under
    /// [`SimEngine::Batch`] one [`simulate_batch`] pass over the group,
    /// with every record annotated with the group width
    /// ([`RunRecord::batch_width`]); under the other engines
    /// [`simulate_with_engine`] per design point.  The sequential baseline
    /// (a 1-core `pdf` run) depends only on the build, the engine and the
    /// 1-core machine, so it is memoised on the cached build and simulated
    /// once per machine (the same way, over the group's unknown machines)
    /// however many points, groups, sweeps or requests ask for it.  On a
    /// one-core group, simulations whose exact dispatch order
    /// ([`ccs_sched::one_core_order`]) coincides run once and hand their
    /// results to every member — `pdf`, `ws` and the baseline usually form
    /// one class (DESIGN.md §11).  Records are unchanged: a record takes
    /// its scheduler name from the spec, and only `cycles` from the
    /// baseline.  `compile_ms` is charged to the group's first record
    /// only.
    ///
    /// # Panics
    /// Panics when `points` is empty or its points disagree on workload or
    /// machine shape.
    pub fn run_group(&self, points: &[SweepPoint]) -> Vec<Vec<RunRecord>> {
        let head = points.first().expect("a group has at least one point");
        let scale = self.effective_scale();
        let schedulers = self.resolved_schedulers();
        let configs: Vec<CmpConfig> = points.iter().map(|p| p.config.scaled(scale)).collect();
        let shape = &configs[0];
        assert!(
            points
                .iter()
                .zip(&configs)
                .all(|(p, c)| p.workload == head.workload
                    && ccs_sim::batch::same_machine_shape(shape, c)),
            "group mixes workloads or machine shapes"
        );
        let l2_bytes = shape.l2.capacity;
        let cores = head.config.num_cores;
        let build = || {
            // Fault-plan hook (no-op unless a plan is installed): user
            // workload factories can panic, and this is where they run.
            ccs_runtime::fault::inject_panic(ccs_runtime::fault::FaultKind::WorkloadBuild);
            let comp = head.workload.build(scale, l2_bytes, cores);
            let dag = Arc::new(Dag::from_computation(&comp));
            Built::new(comp, dag)
        };
        let built = match head.workload.build_key(scale, l2_bytes, cores) {
            Some(key) => crate::build_cache::get_or_build(key, build),
            None => Arc::new(build()),
        };
        let comp: &Computation = built.comp.as_ref();
        let dag: &Dag = built.dag.as_ref();
        // Geometry prebuild: resolve the line stream and the packed set
        // lanes before the simulations, so the engine finds everything
        // compiled.  Same machine shape means the same stream and lanes for
        // the whole group.  Both are memoised on the computation, so
        // `compile_ms` is the *incremental* cost this group actually paid —
        // the full compile on a cold build, ~zero when an earlier group,
        // sweep or trial already did it.
        let compile_start = std::time::Instant::now();
        let stream = comp.line_stream(shape.l2.line_size);
        let lanes_bytes = prebuild_lanes(&stream, shape);
        let compile_ms = compile_start.elapsed().as_secs_f64() * 1000.0;
        // Memory-footprint metrics: deterministic functions of the build
        // and geometry, identical for every engine.
        let trace_bytes = comp.trace_arena_bytes();
        let peak_alloc_estimate =
            trace_bytes + stream.heap_bytes() + lanes_bytes + dag.heap_bytes();
        // The engine step: one result per config, in config order.
        let simulate = |configs: &[CmpConfig], spec: &SchedulerSpec| match self.engine {
            SimEngine::Batch => simulate_batch(comp, dag, configs, spec).results,
            engine => configs
                .iter()
                .map(|config| {
                    simulate_with_engine(comp, dag, config, spec.build().as_mut(), engine)
                })
                .collect(),
        };
        // The sequential baseline of each point: its machine on one core.
        // The baselines differ only in latencies too, so under the batch
        // engine they form their own (1-core, hence replayable) batch.
        let seq_spec = SchedulerSpec::new("pdf");
        let seq_configs: Option<Vec<CmpConfig>> = self.baseline.then(|| {
            configs
                .iter()
                .map(|scaled| {
                    let mut seq_cfg = scaled.clone();
                    seq_cfg.num_cores = 1;
                    // A single core cannot be partitioned into >1 clusters.
                    seq_cfg.clusters = 1;
                    seq_cfg.name = format!("{}-seq", scaled.name);
                    seq_cfg
                })
                .collect()
        });
        // On one core, runs with the same dispatch order are one
        // simulation: only each class's first run executes.  The baseline
        // (last) may join a class because a one-core point's configs are
        // its baseline configs up to the name (one core means one
        // cluster), and a record reads only `cycles` from its baseline.
        let mut specs: Vec<&SchedulerSpec> = schedulers.iter().collect();
        if self.baseline {
            specs.push(&seq_spec);
        }
        let class_of = if cores == 1 && specs.len() > 1 {
            one_core_classes(dag, &specs)
        } else {
            (0..specs.len()).collect()
        };
        let results: Vec<Option<Vec<ccs_sim::SimResult>>> = schedulers
            .iter()
            .enumerate()
            .map(|(i, spec)| (class_of[i] == i).then(|| simulate(&configs, spec)))
            .collect();
        let results_of = |run: usize| {
            results[class_of[run]]
                .as_deref()
                .expect("every class representative simulates")
        };
        let sequentials = seq_configs.map(|seq_configs| {
            let shared = class_of[schedulers.len()];
            built.baselines(self.engine, &seq_configs, |todo| {
                if shared < schedulers.len() {
                    todo.iter()
                        .map(|&j| results_of(shared)[j].clone())
                        .collect()
                } else {
                    let todo: Vec<CmpConfig> =
                        todo.iter().map(|&j| seq_configs[j].clone()).collect();
                    simulate(&todo, &seq_spec)
                }
            })
        });
        let width = match self.engine {
            SimEngine::Batch => points.len() as u64,
            _ => 0,
        };
        points
            .iter()
            .enumerate()
            .map(|(j, point)| {
                schedulers
                    .iter()
                    .enumerate()
                    .map(|(i, spec)| {
                        let sequential = sequentials.as_ref().map(|seqs| &seqs[j]);
                        // The compile was paid once for the whole group;
                        // charge it to the group's first record only, so
                        // summing `compile_ms` over a report yields the true
                        // total rather than one copy per record.
                        let record_compile_ms = if i == 0 && j == 0 { compile_ms } else { 0.0 };
                        RunRecord::from_sim(
                            point.workload.label(),
                            spec,
                            &results_of(i)[j],
                            sequential,
                        )
                        .with_footprint(trace_bytes, peak_alloc_estimate)
                        .with_compile_ms(record_compile_ms)
                        .with_batch_width(width)
                    })
                    .collect()
            })
            .collect()
    }

    /// The canonical [`ResultStore`](crate::ResultStore) keys of one sweep
    /// point's records, in resolved-scheduler order (see
    /// [`crate::canon::record_key`]).
    pub fn record_keys(&self, point: &SweepPoint) -> Vec<String> {
        let label = point.workload.label();
        let scale = self.effective_scale();
        self.resolved_schedulers()
            .iter()
            .map(|spec| {
                crate::canon::record_key(
                    &label,
                    &point.config,
                    scale,
                    self.engine,
                    spec,
                    self.baseline,
                )
            })
            .collect()
    }

    /// The report name.
    pub fn report_name(&self) -> &str {
        &self.name
    }

    /// Run the full cross-product and collect a [`Report`].
    ///
    /// Defaults when a dimension was left unset: schedulers = PDF and WS;
    /// configs = the paper's 8-core default.  The sweep runs as
    /// [`Experiment::plan`] → [`Experiment::run_group`] per group, forked
    /// across a pool under [`Experiment::parallelism`] (by default one
    /// thread per host core), and each point's records are placed by
    /// [`SweepPoint::index`], so the report is byte-identical for every
    /// engine and every parallelism.  Safe to call from inside a
    /// `ccs-runtime` pool: the groups then fork onto the caller's pool.
    ///
    /// # Panics
    /// Panics if no workload was added, or if a scheduler or workload name
    /// is not registered.
    pub fn run(&self) -> Report {
        assert!(!self.workloads.is_empty(), "experiment has no workloads");
        // Groups are independent, so they can run in any order — records
        // are placed by position to keep the report deterministic.
        let groups = self.plan();
        let run_group = |group: &Vec<SweepPoint>| self.run_group(group);
        let threads = self.threads().min(groups.len());
        let mut per_group: Vec<Option<Vec<Vec<RunRecord>>>> = groups.iter().map(|_| None).collect();
        if threads <= 1 {
            per_group = groups.iter().map(|group| Some(run_group(group))).collect();
        } else if ccs_runtime::current_thread_index().is_some() {
            // Already on a worker: fork onto the caller's pool rather than
            // block this worker on a second pool's `install`.
            fan_out(&groups, &mut per_group, &run_group);
        } else {
            ThreadPool::new(threads, Policy::WorkStealing)
                .install(|| fan_out(&groups, &mut per_group, &run_group));
        }
        let total_points: usize = groups.iter().map(Vec::len).sum();
        let mut slots: Vec<Option<Vec<RunRecord>>> = (0..total_points).map(|_| None).collect();
        for (group, results) in groups.iter().zip(per_group) {
            let results = results.expect("every group produces records");
            for (point, records) in group.iter().zip(results) {
                slots[point.index] = Some(records);
            }
        }
        let mut report = Report::new(self.name.clone(), self.effective_scale());
        report.records = slots
            .into_iter()
            .flat_map(|slot| slot.expect("groups cover every sweep point"))
            .collect();
        report
    }
}

/// One resolved sweep point of an [`Experiment`]: a workload × design-point
/// pair at cross-product position `index` (workload-major, matching report
/// order).  Produced by [`Experiment::sweep_points`], grouped by
/// [`Experiment::plan`] and executed by [`Experiment::run_group`].
#[derive(Clone, Debug)]
pub struct SweepPoint {
    /// Position in the cross product.  The report slice this point's
    /// records occupy starts at `index × resolved_schedulers().len()`.
    pub index: usize,
    /// The workload of this point.
    pub workload: WorkloadSpec,
    /// The (unscaled) design point.
    pub config: CmpConfig,
}

/// Recursively fork-join over the planned groups, writing each group's
/// result into its own slot so completion order cannot reorder the report.
fn fan_out<T, R, F>(items: &[T], slots: &mut [Option<R>], run: &F)
where
    T: Sync,
    R: Send,
    F: Fn(&T) -> R + Sync,
{
    match items.len() {
        0 => {}
        1 => slots[0] = Some(run(&items[0])),
        n => {
            let (left, right) = items.split_at(n / 2);
            let (left_out, right_out) = slots.split_at_mut(n / 2);
            join(
                || fan_out(left, left_out, run),
                || fan_out(right, right_out, run),
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ccs_dag::{ComputationBuilder, GroupMeta};

    fn tiny_fixed_workload() -> WorkloadSpec {
        let mut b = ComputationBuilder::new(128);
        let mut space = ccs_dag::AddressSpace::new();
        let region = space.alloc(32 * 1024);
        let leaves: Vec<_> = (0..4)
            .map(|_| {
                b.strand_with(|t| {
                    t.read_range(region.base, region.bytes, 2);
                })
            })
            .collect();
        let par = b.par(leaves, GroupMeta::labeled("scan"));
        let root = b.seq(vec![par], GroupMeta::labeled("root"));
        WorkloadSpec::fixed("tiny-scan", b.finish(root))
    }

    #[test]
    fn cross_product_has_one_record_per_point() {
        let report = Experiment::new(tiny_fixed_workload())
            .cores([2, 4])
            .scale(64)
            .schedulers(["pdf", "ws", "central"])
            .run();
        assert_eq!(report.len(), 2 * 3);
        assert_eq!(report.schedulers(), vec!["central", "pdf", "ws"]);
        for r in &report.records {
            assert!(r.cycles > 0);
            assert!(r.speedup_over_seq.is_some(), "baseline on by default");
        }
    }

    #[test]
    fn sweep_points_decompose_run_byte_identically() {
        // The serve daemon runs `run_group` per planned group and
        // reassembles; that must equal `run`'s report record for record and
        // byte for byte, on every engine.  The sweep mixes a fixed and a
        // registry workload, two latency variants of a 1-core point (a
        // width-2 group under the batch engine) and a 2-core point.
        let one_core = CmpConfig::default_with_cores(1).unwrap();
        let base = Experiment::new(tiny_fixed_workload())
            .workload("mergesort")
            .configs([
                one_core.clone().with_l2_hit_latency(7),
                one_core.with_l2_hit_latency(19),
                CmpConfig::default_with_cores(2).unwrap(),
            ])
            .scale(1024)
            .schedulers(["pdf", "ws"]);
        for engine in [
            SimEngine::EventDriven,
            SimEngine::Reference,
            SimEngine::Batch,
        ] {
            let exp = base.clone().engine(engine);
            let report = exp.run();
            let groups = exp.plan();
            let widths: Vec<usize> = groups.iter().map(Vec::len).collect();
            let expected_widths: &[usize] = match engine {
                SimEngine::Batch => &[2, 1, 2, 1],
                _ => &[1; 6],
            };
            assert_eq!(widths, expected_widths, "{engine:?} plan");
            let mut indices: Vec<usize> = groups.iter().flatten().map(|p| p.index).collect();
            indices.sort_unstable();
            assert_eq!(
                indices,
                (0..6).collect::<Vec<_>>(),
                "{engine:?}: each point once"
            );
            let per_sched = exp.resolved_schedulers().len();
            for group in &groups {
                let per_point = exp.run_group(group);
                assert_eq!(per_point.len(), group.len());
                for (point, records) in group.iter().zip(&per_point) {
                    assert_eq!(records.len(), per_sched);
                    let start = point.index * per_sched;
                    for (offset, record) in records.iter().enumerate() {
                        let expected = &report.records[start + offset];
                        assert_eq!(record, expected, "{engine:?}");
                        assert_eq!(
                            record.to_json().to_string_pretty(),
                            expected.to_json().to_string_pretty(),
                            "{engine:?}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn defaults_are_pdf_ws_on_default_8() {
        let report = Experiment::new(tiny_fixed_workload()).scale(64).run();
        assert_eq!(report.len(), 2);
        assert!(report.records.iter().all(|r| r.cores == 8));
    }

    #[test]
    fn quick_clamps_scale() {
        let exp = Experiment::new("mergesort").scale(32).quick(true);
        assert_eq!(exp.effective_scale(), 256);
        let exp = Experiment::new("mergesort").scale(512).quick(true);
        assert_eq!(exp.effective_scale(), 512);
    }

    #[test]
    fn baseline_can_be_disabled() {
        let report = Experiment::new(tiny_fixed_workload())
            .cores(2)
            .scale(64)
            .sequential_baseline(false)
            .run();
        assert!(report.records.iter().all(|r| r.speedup_over_seq.is_none()));
    }

    #[test]
    fn seeded_scheduler_records_its_seed() {
        let report = Experiment::new(tiny_fixed_workload())
            .cores(2)
            .scale(64)
            .scheduler("ws-rand@9")
            .run();
        assert_eq!(report.records[0].scheduler, "ws-rand");
        assert_eq!(report.records[0].seed, Some(9));
        assert_eq!(report.records[0].scheduler_label(), "ws-rand@9");
    }

    #[test]
    fn registry_specs_parse_label_and_run() {
        let spec = WorkloadSpec::from("matmul:n=64");
        assert_eq!(spec.name(), "matmul");
        assert_eq!(spec.label(), "matmul:n=64");
        assert_eq!(WorkloadSpec::parse(&spec.label()).unwrap(), spec);

        let report = Experiment::new("matmul:n=64")
            .cores(2)
            .scale(1024)
            .schedulers(["pdf"])
            .sequential_baseline(false)
            .run();
        assert_eq!(report.len(), 1);
        assert_eq!(report.records[0].workload, "matmul:n=64");
    }

    #[test]
    #[should_panic(expected = "did you mean")]
    fn unknown_workload_name_panics_with_suggestion() {
        Experiment::new("mergsort").cores(2).scale(1024).run();
    }

    #[test]
    fn default_parallelism_is_the_host_core_count() {
        let host = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
        assert_eq!(Experiment::new("mergesort").threads(), host);
        assert_eq!(Experiment::named("empty").threads(), host);
        assert_eq!(Experiment::named("pinned").parallelism(1).threads(), 1);
    }

    /// Two workloads × two latency variants of a 1-core point and a 2-core
    /// point: six groups on the event and reference engines, four on the
    /// batch engine.
    fn multi_group_sweep() -> Experiment {
        let one_core = CmpConfig::default_with_cores(1).unwrap();
        Experiment::named("par-check")
            .workloads(["mergesort", "quicksort"])
            .configs([
                one_core.clone().with_l2_hit_latency(7),
                one_core.with_l2_hit_latency(19),
                CmpConfig::default_with_cores(2).unwrap(),
            ])
            .scale(1024)
            .schedulers(["pdf", "ws"])
    }

    #[test]
    fn parallel_run_matches_sequential_byte_for_byte() {
        // The default (one thread per host core) and an oversubscribed
        // 8 threads, each against a sequential run, on every engine.
        for engine in [
            SimEngine::EventDriven,
            SimEngine::Batch,
            SimEngine::Reference,
        ] {
            let exp = multi_group_sweep().engine(engine);
            assert!(exp.plan().len() >= 3, "{engine:?}: a multi-group plan");
            let sequential = exp.clone().parallelism(1).run();
            for parallel in [exp.run(), exp.clone().parallelism(8).run()] {
                assert_eq!(parallel, sequential, "{engine:?}");
                assert_eq!(parallel.to_json(), sequential.to_json(), "{engine:?}");
            }
        }
    }

    #[test]
    fn run_inside_a_pool_forks_onto_the_callers_pool() {
        let exp = multi_group_sweep().engine(SimEngine::Batch);
        let sequential = exp.clone().parallelism(1).run();
        let (tx, rx) = std::sync::mpsc::channel();
        std::thread::spawn(move || {
            let pool = ThreadPool::new(2, Policy::WorkStealing);
            let nested = pool.install(|| {
                // One run per side of a join, each fanning out again.
                join(|| exp.run(), || exp.clone().parallelism(8).run())
            });
            tx.send(nested).unwrap();
        });
        let (a, b) = rx
            .recv_timeout(std::time::Duration::from_secs(120))
            .expect("a run nested in a pool finishes");
        assert_eq!(a.to_json(), sequential.to_json());
        assert_eq!(b.to_json(), sequential.to_json());
    }

    #[test]
    fn registry_builds_are_shared_across_experiment_runs() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        static BUILDS: AtomicUsize = AtomicUsize::new(0);
        ccs_workloads::WorkloadRegistry::global().register_fn(
            "cache-probe-workload",
            "counts its builds (build-cache test)",
            |_ctx| {
                BUILDS.fetch_add(1, Ordering::SeqCst);
                let mut b = ccs_dag::ComputationBuilder::new(128);
                let leaf = b.strand_with(|t| {
                    t.compute(10).read_range(0x4000, 2048, 2);
                });
                b.finish(leaf)
            },
        );
        let experiment = Experiment::new("cache-probe-workload")
            .cores(2)
            .scale(64)
            .schedulers(["pdf"]);
        let runs = 4;
        let first = experiment.run();
        for _ in 1..runs {
            assert_eq!(experiment.run(), first, "cached builds change nothing");
        }
        let builds = BUILDS.load(Ordering::SeqCst);
        // The global build cache shares one build across every run of the
        // process (other tests may clear the cache concurrently, so allow
        // a rebuild or two — but re-building per run must be gone).
        assert!(
            builds < runs,
            "expected cached builds, factory ran {builds}/{runs} times"
        );
    }

    /// Hashjoin under another name, counting its builds.
    struct CountedHashjoin(std::sync::atomic::AtomicUsize);

    impl ccs_workloads::WorkloadFactory for CountedHashjoin {
        fn name(&self) -> &str {
            "counted-hashjoin"
        }

        fn describe(&self) -> &str {
            "hashjoin, counting its builds (build-cache test)"
        }

        fn key(&self, ctx: &BuildCtx) -> String {
            let key = WorkloadRegistry::global().key("hashjoin", ctx).unwrap();
            format!("counted-{key}")
        }

        fn build(&self, ctx: &BuildCtx) -> Computation {
            self.0.fetch_add(1, std::sync::atomic::Ordering::SeqCst);
            WorkloadRegistry::global().build("hashjoin", ctx).unwrap()
        }
    }

    #[test]
    fn points_that_resolve_alike_share_a_build_and_a_baseline() {
        let factory = Arc::new(CountedHashjoin(Default::default()));
        WorkloadRegistry::global().register(factory.clone());
        let scale = 1024;
        let sweep = |cores: usize| {
            Experiment::new("counted-hashjoin")
                .cores([cores])
                .scale(scale)
                .run()
        };
        // At 1/1024 both points have a 16 KB L2: hashjoin ignores the core
        // count, and their 1-core machines differ only in name.
        let served = [sweep(2), sweep(8)];
        assert_eq!(factory.0.load(std::sync::atomic::Ordering::SeqCst), 1);
        let l2 = CmpConfig::default_with_cores(2)
            .unwrap()
            .scaled(scale)
            .l2
            .capacity;
        let key = WorkloadSpec::registry("counted-hashjoin")
            .build_key(scale, l2, 2)
            .unwrap();
        assert_eq!(crate::build_cache::cached_baselines_of(&key), Some(1));
        // The same sweeps on fixed computations, which bypass the cache.
        for (cores, served) in [2, 8].into_iter().zip(served) {
            let config = CmpConfig::default_with_cores(cores).unwrap().scaled(scale);
            let ctx = BuildCtx::new(scale, config.l2.capacity, cores);
            let comp = WorkloadRegistry::global().build("hashjoin", &ctx).unwrap();
            let fixed = Experiment::new(WorkloadSpec::fixed("counted-hashjoin", comp))
                .cores([cores])
                .scale(scale)
                .run();
            assert_eq!(served, fixed, "{cores} cores");
            assert!(served.records.iter().all(|r| r.speedup_over_seq.is_some()));
        }
    }

    #[test]
    fn batch_groups_pin_latency_only_grouping() {
        // Latency-only variants of one design point group together; a
        // different core count, a different geometry, or a different
        // workload each split off.  Order: groups by first appearance,
        // points in cross-product order within.
        let one_core = CmpConfig::default_with_cores(1).unwrap();
        let exp = Experiment::named("planner")
            .workloads(["mergesort", "quicksort"])
            .configs([
                one_core.clone().with_l2_hit_latency(7),
                one_core.clone().with_l2_hit_latency(19),
                CmpConfig::default_with_cores(4).unwrap(),
                one_core.clone().with_memory_latency(900),
            ])
            .scale(1024)
            .schedulers(["pdf"]);
        let groups = exp.batch_groups();
        // Per workload: {l2hit7, l2hit19, mem900} batch, the 4-core point
        // is a singleton — 2 workloads × 2 groups.
        assert_eq!(groups.len(), 4);
        let shape: Vec<(usize, Vec<usize>)> = groups
            .iter()
            .map(|g| (g.len(), g.iter().map(|p| p.index).collect()))
            .collect();
        assert_eq!(
            shape,
            vec![
                (3, vec![0, 1, 3]),
                (1, vec![2]),
                (3, vec![4, 5, 7]),
                (1, vec![6]),
            ]
        );
        // Every sweep point appears exactly once.
        let mut indices: Vec<usize> = groups.iter().flatten().map(|p| p.index).collect();
        indices.sort_unstable();
        assert_eq!(indices, (0..8).collect::<Vec<_>>());
    }

    #[test]
    fn batch_engine_report_is_byte_identical_to_event() {
        let one_core = CmpConfig::default_with_cores(1).unwrap();
        let base = Experiment::named("batch-check")
            .workload("mergesort")
            .configs([
                one_core.clone().with_l2_hit_latency(7),
                one_core
                    .clone()
                    .with_l2_hit_latency(19)
                    .with_memory_latency(900),
                CmpConfig::default_with_cores(2).unwrap(),
            ])
            .scale(1024)
            .schedulers(["pdf", "ws-rand@7"]);
        let event = base.clone().run();
        let batched = base.clone().engine(SimEngine::Batch).run();
        assert_eq!(batched, event);
        assert_eq!(batched.to_json(), event.to_json());
        // The annotations record how the planner grouped the points:
        // the two latency variants batched (width 2), the 2-core point
        // ran alone (width 1); the event engine never annotates.
        let widths: Vec<u64> = batched.records.iter().map(|r| r.batch_width).collect();
        assert_eq!(widths, vec![2, 2, 2, 2, 1, 1]);
        assert!(event.records.iter().all(|r| r.batch_width == 0));
        // A parallel batched run scatters back to the same report.
        let parallel = base.clone().engine(SimEngine::Batch).parallelism(4).run();
        assert_eq!(parallel, event);
    }

    #[test]
    fn benchmark_workload_runs_end_to_end() {
        let report = Experiment::new("mergesort")
            .cores(4)
            .scale(512)
            .schedulers(["pdf", "ws"])
            .run();
        assert_eq!(report.len(), 2);
        let pdf = report.for_scheduler("pdf").next().unwrap();
        let ws = report.for_scheduler("ws").next().unwrap();
        assert_eq!(pdf.instructions, ws.instructions);
    }
}
