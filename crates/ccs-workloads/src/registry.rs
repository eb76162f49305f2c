//! The open workload registry.
//!
//! The experiment layer identifies workloads by *name* (plus `key=value`
//! parameters), mirroring the scheduler registry in `ccs-sched::registry`:
//!
//! * [`WorkloadFactory`] — how a named workload is built for one design
//!   point, and which design points share one build;
//! * [`WorkloadRegistry`] — a name → factory table.
//!   [`WorkloadRegistry::global`] is the process-wide instance,
//!   pre-populated with all six built-in kernels (`"lu"`, `"hashjoin"`,
//!   `"mergesort"`, `"quicksort"`, `"matmul"`, `"heat"`);
//! * [`BuildCtx`] — everything a factory needs for one design point: the
//!   scale divisor, the (scaled) shared-L2 capacity, the core count, and
//!   free-form `key=value` parameters from the workload spec string.
//!
//! User-defined workloads plug into every driver without touching crate
//! internals:
//!
//! ```
//! use ccs_dag::{ComputationBuilder, GroupMeta};
//! use ccs_workloads::registry::{BuildCtx, WorkloadRegistry};
//!
//! WorkloadRegistry::global().register_fn(
//!     "spin",
//!     "n independent compute-only strands (demo)",
//!     |ctx: &BuildCtx| {
//!         let n = ctx.u64_param("n").unwrap_or(8);
//!         let mut b = ComputationBuilder::new(128);
//!         let leaves: Vec<_> = (0..n)
//!             .map(|_| b.strand_with(|t| { t.compute(1000); }))
//!             .collect();
//!         let root = b.par(leaves, GroupMeta::labeled("spin"));
//!         b.finish(root)
//!     },
//! );
//!
//! let ctx = BuildCtx::new(256, 64 * 1024, 4).with_param("n", "3");
//! let comp = WorkloadRegistry::global().build("spin", &ctx).unwrap();
//! assert_eq!(comp.num_tasks(), 3);
//! ```

use std::collections::BTreeMap;
use std::sync::{Arc, OnceLock, RwLock};

use ccs_dag::Computation;
use ccs_sched::spec::did_you_mean;

use crate::extras::{self, HeatParams, MatmulParams, QuicksortParams};
use crate::{hashjoin, lu, mergesort, HashJoinParams, LuParams, MergesortParams};

/// Everything a [`WorkloadFactory`] gets for one design point.
///
/// The scale divisor and the machine shape come from the experiment layer
/// (the L2 capacity is the *scaled* capacity of the design point, so task
/// granularity can track the cache through each kernel's `Params::scaled`
/// constructor); the `key=value` parameters come from the workload spec string
/// (`"heat:rows=1024,cols=1024,steps=8"`).
#[derive(Clone, Debug)]
pub struct BuildCtx {
    /// Input/cache scale divisor (1 = the paper's input sizes).
    pub scale: u64,
    /// Shared-L2 capacity in bytes of the design point, after scaling.
    pub l2_bytes: u64,
    /// Number of cores of the design point.
    pub cores: usize,
    /// Free-form `key=value` parameters from the workload spec.
    pub params: BTreeMap<String, String>,
}

impl BuildCtx {
    /// A context with no parameters.
    pub fn new(scale: u64, l2_bytes: u64, cores: usize) -> BuildCtx {
        BuildCtx {
            scale: scale.max(1),
            l2_bytes,
            cores,
            params: BTreeMap::new(),
        }
    }

    /// Attach one `key=value` parameter.
    pub fn with_param(mut self, key: impl Into<String>, value: impl Into<String>) -> BuildCtx {
        self.params.insert(key.into(), value.into());
        self
    }

    /// The raw value of a parameter, if present.
    pub fn param(&self, key: &str) -> Option<&str> {
        self.params.get(key).map(String::as_str)
    }

    /// A parameter parsed as `u64`.
    ///
    /// # Panics
    /// Panics with a descriptive message when the value is present but not a
    /// `u64` — factories have no error channel (`build` returns the
    /// computation directly), and a malformed spec is a caller bug.
    pub fn u64_param(&self, key: &str) -> Option<u64> {
        self.param(key).map(|v| {
            v.parse().unwrap_or_else(|_| {
                panic!("workload parameter {key}={v:?} is not an unsigned integer")
            })
        })
    }

    /// A parameter parsed as `bool` (`true`/`false`/`1`/`0`).
    ///
    /// # Panics
    /// Panics with a descriptive message when the value is present but not a
    /// boolean (see [`BuildCtx::u64_param`]).
    pub fn bool_param(&self, key: &str) -> Option<bool> {
        self.param(key).map(|v| match v {
            "true" | "1" => true,
            "false" | "0" => false,
            other => panic!("workload parameter {key}={other:?} is not a boolean"),
        })
    }
}

/// Validate a power-of-two factory parameter, panicking with the workload
/// and parameter names on bad values (the recursive kernels would otherwise
/// die in a bare structural assert deep inside the builder).
fn require_pow2(workload: &str, key: &str, value: u64) -> u64 {
    assert!(
        value >= 4 && value.is_power_of_two(),
        "workload {workload}: parameter {key}={value} must be a power of two >= 4"
    );
    value
}

/// Builds [`Computation`]s for one registered workload name.
pub trait WorkloadFactory: Send + Sync {
    /// The canonical registry name (e.g. `"mergesort"`).
    fn name(&self) -> &str;

    /// One-line human-readable description, shown by CLI listings.
    fn describe(&self) -> &str;

    /// The identity of the computation [`WorkloadFactory::build`] makes
    /// for `ctx`: contexts with equal keys must build identical
    /// computations, and the experiment layer's build cache shares one
    /// build between them.  The default covers every field of `ctx`, so a
    /// factory that does not override it is never wrongly shared.  A
    /// factory that reads only part of its context (a kernel whose task
    /// grain ignores the core count) returns a coarser key, and design
    /// points it cannot tell apart then share one build.
    fn key(&self, ctx: &BuildCtx) -> String {
        format!("{}:{ctx:?}", self.name())
    }

    /// Build the computation for one design point.
    fn build(&self, ctx: &BuildCtx) -> Computation;
}

/// A built-in kernel: `resolve` turns a design point into the kernel's
/// `Params`, and `build` reads only those.  The key is the resolved
/// `Params`, so design points that resolve alike share one build.
struct Builtin<P> {
    name: &'static str,
    describe: &'static str,
    resolve: fn(&BuildCtx) -> P,
    build: fn(&P) -> Computation,
}

impl<P: std::fmt::Debug> WorkloadFactory for Builtin<P> {
    fn name(&self) -> &str {
        self.name
    }

    fn describe(&self) -> &str {
        self.describe
    }

    fn key(&self, ctx: &BuildCtx) -> String {
        format!("{}:{:?}", self.name, (self.resolve)(ctx))
    }

    fn build(&self, ctx: &BuildCtx) -> Computation {
        (self.build)(&(self.resolve)(ctx))
    }
}

/// A [`WorkloadFactory`] wrapping a closure (see
/// [`WorkloadRegistry::register_fn`]).
struct FnFactory<F> {
    name: String,
    describe: String,
    build: F,
}

impl<F> WorkloadFactory for FnFactory<F>
where
    F: Fn(&BuildCtx) -> Computation + Send + Sync,
{
    fn name(&self) -> &str {
        &self.name
    }

    fn describe(&self) -> &str {
        &self.describe
    }

    fn build(&self, ctx: &BuildCtx) -> Computation {
        (self.build)(ctx)
    }
}

/// Error returned when a workload name has no registered factory.
#[derive(Clone, Debug)]
pub struct UnknownWorkload {
    /// The name that failed to resolve.
    pub name: String,
    /// The names that *are* registered, for the error message.
    pub known: Vec<String>,
}

impl std::fmt::Display for UnknownWorkload {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "unknown workload {:?}", self.name)?;
        if let Some(close) = did_you_mean(&self.name, self.known.iter().map(String::as_str)) {
            write!(f, " — did you mean {close:?}?")?;
        }
        write!(f, " (registered: {})", self.known.join(", "))
    }
}

impl std::error::Error for UnknownWorkload {}

/// A name → [`WorkloadFactory`] table.
pub struct WorkloadRegistry {
    factories: RwLock<BTreeMap<String, Arc<dyn WorkloadFactory>>>,
}

impl WorkloadRegistry {
    /// An empty registry (no built-ins).
    pub fn empty() -> Self {
        WorkloadRegistry {
            factories: RwLock::new(BTreeMap::new()),
        }
    }

    /// A registry pre-populated with all six built-in kernels: the paper's
    /// primary benchmarks (`"lu"`, `"hashjoin"`, `"mergesort"`) and the
    /// Section 5.5 extras (`"quicksort"`, `"matmul"`, `"heat"`).
    ///
    /// Built-in parameters (all optional; defaults are the
    /// paper-proportional sizes divided by [`BuildCtx::scale`]):
    ///
    /// | workload    | parameters |
    /// |-------------|------------|
    /// | `mergesort` | `n` (items), `ws` (task working-set bytes), `coarse` |
    /// | `hashjoin`  | `build` (build-partition bytes), `probe_tasks`, `coarse` |
    /// | `lu`        | `n` (matrix dim, power of two), `block` |
    /// | `quicksort` | `n` (items), `split` (left %, 50 = balanced), `base` (items) |
    /// | `matmul`    | `n` (matrix dim, power of two), `block` |
    /// | `heat`      | `rows`, `cols`, `steps` (iterations), `band` (rows/task) |
    ///
    /// Each built-in resolves its context to the kernel's `Params` and keys
    /// its build by them ([`WorkloadFactory::key`]): `hashjoin` and `lu`
    /// ignore the core count, `quicksort`, `matmul` and `heat` also ignore
    /// the L2 capacity, and `mergesort` reads both only through its task
    /// working set, which has a 16 KB floor.
    pub fn with_builtins() -> Self {
        let registry = Self::empty();
        registry.builtin(
            "mergesort",
            "parallel mergesort, 32M 4-byte items at scale 1 (paper §4.2)",
            |ctx| {
                let mut p = match ctx.u64_param("n") {
                    Some(n) => {
                        let ws = MergesortParams::scaled(ctx.scale, ctx.l2_bytes, ctx.cores)
                            .task_working_set();
                        MergesortParams::new(n).with_task_working_set(ws)
                    }
                    None => MergesortParams::scaled(ctx.scale, ctx.l2_bytes, ctx.cores),
                };
                if let Some(ws) = ctx.u64_param("ws") {
                    p = p.with_task_working_set(ws);
                }
                if ctx.bool_param("coarse").unwrap_or(false) {
                    p = p.coarse_grained();
                }
                p
            },
            mergesort::build,
        );
        registry.builtin(
            "hashjoin",
            "database hash join, ~341MB build partition at scale 1 (paper §4.2)",
            |ctx| {
                let mut p = match ctx.u64_param("build") {
                    Some(build) => HashJoinParams::new(build.max(1)).with_l2_bytes(ctx.l2_bytes),
                    None => HashJoinParams::scaled(ctx.scale, ctx.l2_bytes),
                };
                if let Some(tasks) = ctx.u64_param("probe_tasks") {
                    p.probe_tasks_per_subpartition = tasks.max(1);
                }
                if ctx.bool_param("coarse").unwrap_or(false) {
                    p = p.coarse_grained();
                }
                p
            },
            hashjoin::build,
        );
        registry.builtin(
            "lu",
            "recursive dense LU factorization, 2Kx2K doubles at scale 1 (paper §4.2)",
            |ctx| {
                let p = match ctx.u64_param("n") {
                    Some(n) => {
                        let n = require_pow2("lu", "n", n);
                        LuParams::new(n).with_block(LuParams::block_for_l2(n, ctx.l2_bytes))
                    }
                    None => LuParams::scaled(ctx.scale, ctx.l2_bytes),
                };
                match ctx.u64_param("block") {
                    Some(block) => {
                        LuParams::new(p.n).with_block(require_pow2("lu", "block", block))
                    }
                    None => p,
                }
            },
            lu::build,
        );
        registry.builtin(
            "quicksort",
            "recursive quicksort with unbalanced pivots (paper §5.5)",
            |ctx| {
                let mut p = match ctx.u64_param("n") {
                    Some(n) => QuicksortParams::new(n.max(2)),
                    None => QuicksortParams::scaled(ctx.scale),
                };
                if let Some(split) = ctx.u64_param("split") {
                    p.split_percent = split.clamp(1, 99);
                }
                if let Some(base) = ctx.u64_param("base") {
                    p.base_task_items = base.max(1);
                }
                p
            },
            extras::quicksort,
        );
        registry.builtin(
            "matmul",
            "recursive blocked matrix multiply, 2Kx2K doubles at scale 1 (paper §5.5)",
            |ctx| {
                let mut p = match ctx.u64_param("n") {
                    Some(n) => MatmulParams::new(require_pow2("matmul", "n", n)),
                    None => MatmulParams::scaled(ctx.scale),
                };
                if let Some(block) = ctx.u64_param("block") {
                    p.block = require_pow2("matmul", "block", block).min(p.n);
                }
                p
            },
            extras::matmul,
        );
        registry.builtin(
            "heat",
            "iterative 2-D Jacobi stencil, 4Kx4K doubles at scale 1 (paper §5.5)",
            |ctx| {
                let mut p = HeatParams::scaled(ctx.scale);
                if let Some(rows) = ctx.u64_param("rows") {
                    p.rows = rows.max(1);
                }
                if let Some(cols) = ctx.u64_param("cols") {
                    p.cols = cols.max(1);
                }
                if let Some(steps) = ctx.u64_param("steps") {
                    p.iterations = steps.max(1);
                }
                if let Some(band) = ctx.u64_param("band") {
                    p.rows_per_task = band.max(1);
                }
                p
            },
            extras::heat,
        );
        registry
    }

    /// Register a built-in kernel (see [`Builtin`]).
    fn builtin<P: std::fmt::Debug + 'static>(
        &self,
        name: &'static str,
        describe: &'static str,
        resolve: fn(&BuildCtx) -> P,
        build: fn(&P) -> Computation,
    ) {
        self.register(Arc::new(Builtin {
            name,
            describe,
            resolve,
            build,
        }));
    }

    /// The process-wide registry used by the experiment layer and every
    /// name-based workload selector.  Created on first use with the
    /// built-ins registered.
    pub fn global() -> &'static WorkloadRegistry {
        static GLOBAL: OnceLock<WorkloadRegistry> = OnceLock::new();
        GLOBAL.get_or_init(WorkloadRegistry::with_builtins)
    }

    /// Register a factory under its [`WorkloadFactory::name`].  Returns the
    /// factory previously registered under that name, if any (last
    /// registration wins, so tests can shadow built-ins).
    pub fn register(&self, factory: Arc<dyn WorkloadFactory>) -> Option<Arc<dyn WorkloadFactory>> {
        let name = factory.name().to_string();
        self.factories
            .write()
            .unwrap_or_else(|e| e.into_inner())
            .insert(name, factory)
    }

    /// Register a closure as the factory for `name`, with a one-line
    /// description for CLI listings.
    pub fn register_fn<F>(&self, name: impl Into<String>, describe: impl Into<String>, build: F)
    where
        F: Fn(&BuildCtx) -> Computation + Send + Sync + 'static,
    {
        self.register(Arc::new(FnFactory {
            name: name.into(),
            describe: describe.into(),
            build,
        }));
    }

    /// Whether `name` has a registered factory.
    pub fn contains(&self, name: &str) -> bool {
        self.factories
            .read()
            .unwrap_or_else(|e| e.into_inner())
            .contains_key(name)
    }

    /// The registered names, sorted.
    pub fn names(&self) -> Vec<String> {
        self.factories
            .read()
            .unwrap_or_else(|e| e.into_inner())
            .keys()
            .cloned()
            .collect()
    }

    /// The one-line description of a registered workload.
    pub fn describe(&self, name: &str) -> Option<String> {
        self.factories
            .read()
            .unwrap_or_else(|e| e.into_inner())
            .get(name)
            .map(|f| f.describe().to_string())
    }

    /// The factory registered under `name`.
    fn factory(&self, name: &str) -> Result<Arc<dyn WorkloadFactory>, UnknownWorkload> {
        let factory = self
            .factories
            .read()
            .unwrap_or_else(|e| e.into_inner())
            .get(name)
            .cloned();
        factory.ok_or_else(|| UnknownWorkload {
            name: name.to_string(),
            known: self.names(),
        })
    }

    /// The [`WorkloadFactory::key`] of the workload registered under
    /// `name` for one design point.
    pub fn key(&self, name: &str, ctx: &BuildCtx) -> Result<String, UnknownWorkload> {
        self.factory(name).map(|f| f.key(ctx))
    }

    /// Build the workload registered under `name` for one design point.
    pub fn build(&self, name: &str, ctx: &BuildCtx) -> Result<Computation, UnknownWorkload> {
        self.factory(name).map(|f| f.build(ctx))
    }
}

impl Default for WorkloadRegistry {
    fn default() -> Self {
        Self::with_builtins()
    }
}

impl std::fmt::Debug for WorkloadRegistry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("WorkloadRegistry")
            .field("names", &self.names())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ccs_dag::Dag;

    const ALL: [&str; 6] = ["lu", "hashjoin", "mergesort", "quicksort", "matmul", "heat"];

    #[test]
    fn global_registry_has_all_six_builtins() {
        let names = WorkloadRegistry::global().names();
        for expect in ALL {
            assert!(
                names.contains(&expect.to_string()),
                "{expect} missing from {names:?}"
            );
            assert!(
                WorkloadRegistry::global().describe(expect).is_some(),
                "{expect} has no description"
            );
        }
    }

    #[test]
    fn every_builtin_builds_a_valid_dag() {
        let ctx = BuildCtx::new(1024, 64 * 1024, 8);
        for name in ALL {
            let comp = WorkloadRegistry::global().build(name, &ctx).unwrap();
            assert!(comp.num_tasks() > 1, "{name}: {}", comp.num_tasks());
            Dag::from_computation(&comp).validate().unwrap();
        }
    }

    #[test]
    fn registry_matches_scaled_param_builds() {
        // A bare paper-benchmark name builds at the paper's parameters: the
        // kernel's `Params::scaled` for the design point, trace for trace.
        let (scale, l2, cores) = (512, 128 * 1024, 8);
        let ctx = BuildCtx::new(scale, l2, cores);
        let direct = [
            ("lu", lu::build(&LuParams::scaled(scale, l2))),
            (
                "hashjoin",
                hashjoin::build(&HashJoinParams::scaled(scale, l2)),
            ),
            (
                "mergesort",
                mergesort::build(&MergesortParams::scaled(scale, l2, cores)),
            ),
        ];
        for (name, direct) in direct {
            let by_name = WorkloadRegistry::global().build(name, &ctx).unwrap();
            assert_eq!(direct.num_tasks(), by_name.num_tasks(), "{name}");
            assert!(
                direct.sequential_refs().eq(by_name.sequential_refs()),
                "{name}: traces must be identical"
            );
        }
    }

    #[test]
    fn params_change_the_built_computation() {
        let registry = WorkloadRegistry::global();
        let ctx = BuildCtx::new(1024, 64 * 1024, 8);
        let small = registry
            .build("matmul", &ctx.clone().with_param("n", "64"))
            .unwrap();
        let large = registry
            .build("matmul", &ctx.clone().with_param("n", "128"))
            .unwrap();
        assert!(large.num_tasks() > small.num_tasks());

        let short = registry
            .build("heat", &ctx.clone().with_param("steps", "1"))
            .unwrap();
        let long = registry
            .build("heat", &ctx.clone().with_param("steps", "2"))
            .unwrap();
        assert_eq!(2 * short.total_work(), long.total_work());

        let coarse = registry
            .build("mergesort", &ctx.clone().with_param("coarse", "true"))
            .unwrap();
        let fine = registry.build("mergesort", &ctx).unwrap();
        assert!(coarse.num_tasks() < fine.num_tasks());
    }

    #[test]
    fn unknown_name_suggests_a_close_match() {
        let err = match WorkloadRegistry::global().build("mergsort", &BuildCtx::new(1, 1, 1)) {
            Ok(_) => panic!("unknown workload must not build"),
            Err(e) => e,
        };
        let message = err.to_string();
        assert!(message.contains("did you mean \"mergesort\""), "{message}");
        assert!(message.contains("quicksort"), "{message}");
    }

    #[test]
    #[should_panic(expected = "not an unsigned integer")]
    fn malformed_params_panic_with_context() {
        let ctx = BuildCtx::new(1024, 64 * 1024, 8).with_param("n", "lots");
        let _ = WorkloadRegistry::global().build("matmul", &ctx);
    }

    #[test]
    #[should_panic(expected = "workload matmul: parameter n=100 must be a power of two")]
    fn non_power_of_two_matmul_dim_panics_with_context() {
        let ctx = BuildCtx::new(1024, 64 * 1024, 8).with_param("n", "100");
        let _ = WorkloadRegistry::global().build("matmul", &ctx);
    }

    #[test]
    #[should_panic(expected = "workload lu: parameter block=0 must be a power of two")]
    fn zero_lu_block_panics_with_context() {
        let ctx = BuildCtx::new(1024, 64 * 1024, 8).with_param("block", "0");
        let _ = WorkloadRegistry::global().build("lu", &ctx);
    }

    #[test]
    fn tiny_lu_dims_still_build() {
        for n in [4u64, 8, 16, 64] {
            let ctx = BuildCtx::new(1, 4 << 20, 8).with_param("n", n.to_string());
            let comp = WorkloadRegistry::global().build("lu", &ctx).unwrap();
            assert!(comp.num_tasks() >= 1, "lu n={n}");
        }
    }

    fn key_at(name: &str, l2_bytes: u64, cores: usize) -> String {
        WorkloadRegistry::global()
            .key(name, &BuildCtx::new(1024, l2_bytes, cores))
            .unwrap()
    }

    #[test]
    fn builtin_keys_cover_only_what_the_kernel_reads() {
        for name in ["hashjoin", "lu"] {
            assert_eq!(
                key_at(name, 64 << 10, 2),
                key_at(name, 64 << 10, 8),
                "{name}"
            );
            assert_ne!(
                key_at(name, 64 << 10, 2),
                key_at(name, 1 << 20, 2),
                "{name}"
            );
        }
        for name in ["quicksort", "matmul", "heat"] {
            assert_eq!(
                key_at(name, 64 << 10, 2),
                key_at(name, 1 << 20, 8),
                "{name}"
            );
        }
        // The task working set is L2 / (2 × cores) with a 16 KB floor: at a
        // 128 KB L2 the floor binds from 4 cores up.
        assert_eq!(
            key_at("mergesort", 128 << 10, 4),
            key_at("mergesort", 128 << 10, 8)
        );
        assert_ne!(
            key_at("mergesort", 128 << 10, 1),
            key_at("mergesort", 128 << 10, 2)
        );
        assert_ne!(
            key_at("mergesort", 128 << 10, 2),
            key_at("mergesort", 128 << 10, 4)
        );
        // Parameters reach the key; distinct kernels never share one.
        let registry = WorkloadRegistry::global();
        let ctx = BuildCtx::new(1024, 64 << 10, 2);
        assert_ne!(
            registry.key("matmul", &ctx).unwrap(),
            registry
                .key("matmul", &ctx.clone().with_param("n", "64"))
                .unwrap()
        );
        let keys: std::collections::BTreeSet<String> = ALL
            .iter()
            .map(|name| registry.key(name, &ctx).unwrap())
            .collect();
        assert_eq!(keys.len(), ALL.len());
    }

    #[test]
    fn equal_keys_build_identical_computations() {
        let registry = WorkloadRegistry::global();
        for (name, a, b) in [
            ("hashjoin", (64 << 10, 2), (64 << 10, 8)),
            ("heat", (64 << 10, 2), (1 << 20, 8)),
            ("mergesort", (128 << 10, 4), (128 << 10, 8)),
        ] {
            let ctx = |(l2, cores)| BuildCtx::new(1024, l2, cores);
            assert_eq!(
                registry.key(name, &ctx(a)).unwrap(),
                registry.key(name, &ctx(b)).unwrap()
            );
            let (a, b) = (
                registry.build(name, &ctx(a)).unwrap(),
                registry.build(name, &ctx(b)).unwrap(),
            );
            assert_eq!(a.num_tasks(), b.num_tasks(), "{name}");
            assert!(a.sequential_refs().eq(b.sequential_refs()), "{name}");
        }
    }

    #[test]
    fn closure_factories_key_by_the_whole_context() {
        let registry = WorkloadRegistry::empty();
        registry.register_fn("noop", "one empty strand", |_ctx: &BuildCtx| {
            let mut b = ccs_dag::ComputationBuilder::new(128);
            let s = b.strand_with(|t| {
                t.compute(1);
            });
            b.finish(s)
        });
        let key = |ctx: &BuildCtx| registry.key("noop", ctx).unwrap();
        let ctx = BuildCtx::new(1024, 64 << 10, 2);
        let keys = [
            key(&ctx),
            key(&BuildCtx::new(512, 64 << 10, 2)),
            key(&BuildCtx::new(1024, 128 << 10, 2)),
            key(&BuildCtx::new(1024, 64 << 10, 8)),
            key(&ctx.clone().with_param("n", "3")),
        ];
        let distinct: std::collections::BTreeSet<&String> = keys.iter().collect();
        assert_eq!(distinct.len(), keys.len(), "{keys:?}");
        assert_eq!(key(&ctx), key(&ctx.clone()));
        assert!(registry.key("nope", &ctx).is_err());
    }

    #[test]
    fn custom_factory_round_trips_through_registry() {
        let registry = WorkloadRegistry::empty();
        assert!(!registry.contains("noop"));
        registry.register_fn("noop", "one empty strand", |_ctx: &BuildCtx| {
            let mut b = ccs_dag::ComputationBuilder::new(128);
            let s = b.strand_with(|t| {
                t.compute(1);
            });
            let root = b.seq(vec![s], ccs_dag::GroupMeta::default());
            b.finish(root)
        });
        assert!(registry.contains("noop"));
        assert_eq!(registry.describe("noop").unwrap(), "one empty strand");
        let comp = registry.build("noop", &BuildCtx::new(1, 1, 1)).unwrap();
        assert_eq!(comp.num_tasks(), 1);
    }
}
