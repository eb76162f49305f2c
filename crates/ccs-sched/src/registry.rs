//! The open scheduler registry.
//!
//! The experiment layer identifies schedulers by *name* so that sweeps,
//! reports and command lines stay data-driven.  This module maps those names
//! onto concrete [`Scheduler`] instances through an open registry:
//!
//! * [`SchedulerFactory`] — how a named scheduler is instantiated;
//! * [`SchedulerRegistry`] — a name → factory table.  [`SchedulerRegistry::global`]
//!   is the process-wide instance, pre-populated with the built-in
//!   schedulers (`"pdf"`, `"ws"`, `"ws-rand"`, `"central"`);
//! * [`SchedulerSpec`] — a serialisable "which scheduler" value (name +
//!   instantiation parameters).  Every executor entry point
//!   ([`crate::execute`], `ccs_sim::simulate`, the experiment layer) accepts
//!   `impl Into<SchedulerSpec>`, so a registry name (`"pdf"`,
//!   `"ws-rand@7"`) or a fully parameterised spec both work.
//!
//! User-defined schedulers plug into *every* driver without touching crate
//! internals:
//!
//! ```
//! use ccs_dag::{ComputationBuilder, Dag, GroupMeta, TaskTrace};
//! use ccs_sched::registry::SchedulerRegistry;
//! use ccs_sched::{execute, CentralQueue};
//!
//! // Register a (trivial) custom scheduler under a new name…
//! SchedulerRegistry::global().register_fn("my-fifo", |_params| {
//!     Box::new(CentralQueue::new())
//! });
//!
//! // …and drive it by name through the standard executor.
//! let mut b = ComputationBuilder::new(128);
//! let s = b.strand(TaskTrace::compute_only(10));
//! let root = b.seq(vec![s], GroupMeta::default());
//! let dag = Dag::from_computation(&b.finish(root));
//! let schedule = execute(&dag, 2, "my-fifo");
//! assert_eq!(schedule.makespan, 10);
//! ```

use std::collections::BTreeMap;
use std::sync::{Arc, OnceLock, RwLock};

use crate::scheduler::Scheduler;

/// Instantiation parameters passed to a [`SchedulerFactory`].
///
/// Only randomized schedulers currently consume anything (`seed`); the struct
/// is non-exhaustive in spirit — custom factories are free to ignore it.
#[derive(Clone, Debug, Default, PartialEq, Eq, Hash)]
pub struct SchedulerParams {
    /// RNG seed for randomized schedulers (`None` = the scheduler's default).
    pub seed: Option<u64>,
}

impl SchedulerParams {
    /// Parameters carrying an RNG seed.
    pub fn seeded(seed: u64) -> Self {
        SchedulerParams { seed: Some(seed) }
    }
}

/// Builds [`Scheduler`] instances for one registered name.
pub trait SchedulerFactory: Send + Sync {
    /// The canonical registry name (e.g. `"pdf"`).
    fn id(&self) -> &str;

    /// Instantiate a fresh scheduler.
    fn build(&self, params: &SchedulerParams) -> Box<dyn Scheduler>;
}

/// A [`SchedulerFactory`] wrapping a closure (see
/// [`SchedulerRegistry::register_fn`]).
struct FnFactory<F> {
    id: String,
    build: F,
}

impl<F> SchedulerFactory for FnFactory<F>
where
    F: Fn(&SchedulerParams) -> Box<dyn Scheduler> + Send + Sync,
{
    fn id(&self) -> &str {
        &self.id
    }

    fn build(&self, params: &SchedulerParams) -> Box<dyn Scheduler> {
        (self.build)(params)
    }
}

/// Error returned when a scheduler name has no registered factory.
#[derive(Clone, Debug)]
pub struct UnknownScheduler {
    /// The name that failed to resolve.
    pub name: String,
    /// The names that *are* registered, for the error message.
    pub known: Vec<String>,
}

impl std::fmt::Display for UnknownScheduler {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "unknown scheduler {:?} (registered: {})",
            self.name,
            self.known.join(", ")
        )
    }
}

impl std::error::Error for UnknownScheduler {}

/// A name → [`SchedulerFactory`] table.
pub struct SchedulerRegistry {
    factories: RwLock<BTreeMap<String, Arc<dyn SchedulerFactory>>>,
}

impl SchedulerRegistry {
    /// An empty registry (no built-ins).
    pub fn empty() -> Self {
        SchedulerRegistry {
            factories: RwLock::new(BTreeMap::new()),
        }
    }

    /// A registry pre-populated with the built-in schedulers: `"pdf"`,
    /// `"ws"`, `"ws-rand"` and `"central"`.
    pub fn with_builtins() -> Self {
        let registry = Self::empty();
        registry.register_fn("pdf", |_| Box::new(crate::pdf::Pdf::new()));
        registry.register_fn("ws", |_| Box::new(crate::ws::WorkStealing::new()));
        registry.register_fn("ws-rand", |params| {
            Box::new(crate::ws::WorkStealing::with_random_victims(
                params.seed.unwrap_or(0),
            ))
        });
        registry.register_fn("central", |_| Box::new(crate::central::CentralQueue::new()));
        registry
    }

    /// The process-wide registry used by [`SchedulerSpec::build`] and every
    /// name-based executor entry point.  Created on first use with the
    /// built-ins registered.
    pub fn global() -> &'static SchedulerRegistry {
        static GLOBAL: OnceLock<SchedulerRegistry> = OnceLock::new();
        GLOBAL.get_or_init(SchedulerRegistry::with_builtins)
    }

    /// Register a factory under its [`SchedulerFactory::id`].  Returns the
    /// factory previously registered under that name, if any (last
    /// registration wins, so tests can shadow built-ins).
    ///
    /// Names should stick to the spec grammar (`[A-Za-z0-9_.-/]`, no `@`):
    /// registration accepts any string, but a name outside the grammar
    /// cannot be written as a spec string — `"x@2"` would parse as scheduler
    /// `"x"` with seed 2, and a name with spaces or `:` fails
    /// [`SchedulerSpec::parse`] — so such schedulers are only reachable
    /// through explicitly constructed [`SchedulerSpec`] values.
    pub fn register(
        &self,
        factory: Arc<dyn SchedulerFactory>,
    ) -> Option<Arc<dyn SchedulerFactory>> {
        let name = factory.id().to_string();
        self.factories
            .write()
            .unwrap_or_else(|e| e.into_inner())
            .insert(name, factory)
    }

    /// Register a closure as the factory for `name`.
    pub fn register_fn<F>(&self, name: impl Into<String>, build: F)
    where
        F: Fn(&SchedulerParams) -> Box<dyn Scheduler> + Send + Sync + 'static,
    {
        self.register(Arc::new(FnFactory {
            id: name.into(),
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

    /// Instantiate the scheduler registered under `name`.
    pub fn build(
        &self,
        name: &str,
        params: &SchedulerParams,
    ) -> Result<Box<dyn Scheduler>, UnknownScheduler> {
        let factory = self
            .factories
            .read()
            .unwrap_or_else(|e| e.into_inner())
            .get(name)
            .cloned();
        match factory {
            Some(f) => Ok(f.build(params)),
            None => Err(UnknownScheduler {
                name: name.to_string(),
                known: self.names(),
            }),
        }
    }
}

impl Default for SchedulerRegistry {
    fn default() -> Self {
        Self::with_builtins()
    }
}

impl std::fmt::Debug for SchedulerRegistry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SchedulerRegistry")
            .field("names", &self.names())
            .finish()
    }
}

/// A serialisable "which scheduler" value: registry name plus instantiation
/// parameters.  This is what experiment records store and what every executor
/// entry point accepts (via `impl Into<SchedulerSpec>`).
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub struct SchedulerSpec {
    /// Registry name (e.g. `"pdf"`).
    pub name: String,
    /// Instantiation parameters.
    pub params: SchedulerParams,
}

impl SchedulerSpec {
    /// A spec for the scheduler registered under `name`, with default
    /// parameters.
    pub fn new(name: impl Into<String>) -> Self {
        SchedulerSpec {
            name: name.into(),
            params: SchedulerParams::default(),
        }
    }

    /// Attach an RNG seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.params.seed = Some(seed);
        self
    }

    /// Parse a scheduler spec string: a plain registry name (`"pdf"`), the
    /// shared spec grammar with the `seed` parameter (`"ws-rand:seed=7"`), or
    /// the display form (`"ws-rand@7"`, the inverse of
    /// [`SchedulerSpec`]'s `Display`).
    ///
    /// The name is *not* checked against the registry here — that happens at
    /// [`SchedulerSpec::build`] time, so specs can be parsed before their
    /// scheduler is registered.
    pub fn parse(input: &str) -> Result<Self, crate::spec::SpecParseError> {
        let input = input.trim();
        if let Some((name, seed)) = input.split_once('@') {
            if !crate::spec::is_valid_word(name) {
                return Err(crate::spec::SpecParseError {
                    input: input.to_string(),
                    message: "name must be non-empty and use only [A-Za-z0-9_.-/]".to_string(),
                });
            }
            let seed: u64 = seed.parse().map_err(|_| crate::spec::SpecParseError {
                input: input.to_string(),
                message: format!("seed {seed:?} is not a u64"),
            })?;
            return Ok(SchedulerSpec::new(name).with_seed(seed));
        }
        let parsed = crate::spec::parse_spec(input)?;
        let mut spec = SchedulerSpec::new(parsed.name);
        for (key, value) in &parsed.params {
            match key.as_str() {
                "seed" => {
                    let seed: u64 = value.parse().map_err(|_| crate::spec::SpecParseError {
                        input: input.to_string(),
                        message: format!("seed {value:?} is not a u64"),
                    })?;
                    spec.params.seed = Some(seed);
                }
                other => {
                    return Err(crate::spec::SpecParseError {
                        input: input.to_string(),
                        message: format!("unknown scheduler parameter {other:?} (known: seed)"),
                    });
                }
            }
        }
        Ok(spec)
    }

    /// Parse *and validate* a scheduler spec string against the
    /// [global registry](SchedulerRegistry::global), returning a typed
    /// [`SpecError`](crate::spec::SpecError) on either failure.
    ///
    /// This is the entry point for untrusted input (daemon requests,
    /// config files): unlike [`SchedulerSpec::parse`] it also rejects
    /// unregistered names, and unlike [`SchedulerSpec::build`] it never
    /// panics.
    pub fn resolve(input: &str) -> Result<Self, crate::spec::SpecError> {
        let spec = SchedulerSpec::parse(input)?;
        let registry = SchedulerRegistry::global();
        if !registry.contains(&spec.name) {
            return Err(crate::spec::SpecError::unknown(
                "scheduler",
                spec.name,
                registry.names(),
            ));
        }
        Ok(spec)
    }

    /// Instantiate through the [global registry](SchedulerRegistry::global).
    ///
    /// # Panics
    /// Panics if the name is not registered; use [`SchedulerSpec::try_build`]
    /// to handle that case.
    pub fn build(&self) -> Box<dyn Scheduler> {
        self.try_build().unwrap_or_else(|e| panic!("{e}"))
    }

    /// Instantiate through the global registry, reporting unknown names.
    pub fn try_build(&self) -> Result<Box<dyn Scheduler>, UnknownScheduler> {
        SchedulerRegistry::global().build(&self.name, &self.params)
    }
}

impl From<&str> for SchedulerSpec {
    /// Parse via [`SchedulerSpec::parse`].
    ///
    /// # Panics
    /// Panics when the string does not match the spec grammar; use
    /// [`SchedulerSpec::parse`] to handle that case.
    fn from(spec: &str) -> Self {
        SchedulerSpec::parse(spec).unwrap_or_else(|e| panic!("{e}"))
    }
}

impl From<String> for SchedulerSpec {
    /// Parse via [`SchedulerSpec::parse`] (see `From<&str>`).
    fn from(spec: String) -> Self {
        SchedulerSpec::from(spec.as_str())
    }
}

impl From<&SchedulerSpec> for SchedulerSpec {
    fn from(spec: &SchedulerSpec) -> Self {
        spec.clone()
    }
}

impl std::fmt::Display for SchedulerSpec {
    /// `"ws-rand@7"` when seeded, the plain name otherwise — the label used
    /// in experiment output.
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self.params.seed {
            Some(seed) => write!(f, "{}@{}", self.name, seed),
            None => f.write_str(&self.name),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scheduler::Scheduler;
    use ccs_dag::{Dag, TaskId};

    #[test]
    fn global_registry_has_builtins() {
        let names = SchedulerRegistry::global().names();
        for expect in ["pdf", "ws", "ws-rand", "central"] {
            assert!(
                names.contains(&expect.to_string()),
                "{expect} missing from {names:?}"
            );
        }
    }

    #[test]
    fn builtin_specs_build_matching_schedulers() {
        assert_eq!(SchedulerSpec::new("pdf").build().name(), "pdf");
        assert_eq!(SchedulerSpec::new("ws").build().name(), "ws");
        assert_eq!(
            SchedulerSpec::new("ws-rand").with_seed(3).build().name(),
            "ws-rand"
        );
        assert_eq!(SchedulerSpec::new("central").build().name(), "central");
    }

    #[test]
    fn unknown_name_is_reported() {
        let err = match SchedulerSpec::new("no-such-sched").try_build() {
            Ok(_) => panic!("unknown scheduler must not build"),
            Err(e) => e,
        };
        assert_eq!(err.name, "no-such-sched");
        assert!(err.known.contains(&"pdf".to_string()));
        assert!(err.to_string().contains("no-such-sched"));
    }

    #[test]
    fn kind_conversion_preserves_seed() {
        let spec = SchedulerSpec::from("ws-rand@42");
        assert_eq!(spec.name, "ws-rand");
        assert_eq!(spec.params.seed, Some(42));
        assert_eq!(spec.to_string(), "ws-rand@42");
        assert_eq!(SchedulerSpec::from("pdf").to_string(), "pdf");
    }

    #[test]
    fn spec_strings_parse_and_round_trip() {
        assert_eq!(
            SchedulerSpec::parse("pdf").unwrap(),
            SchedulerSpec::new("pdf")
        );
        assert_eq!(
            SchedulerSpec::parse("ws-rand:seed=7").unwrap(),
            SchedulerSpec::new("ws-rand").with_seed(7)
        );
        // The display form parses back to the same spec.
        let spec = SchedulerSpec::new("ws-rand").with_seed(42);
        assert_eq!(SchedulerSpec::parse(&spec.to_string()).unwrap(), spec);
        // From<&str> goes through the parser.
        assert_eq!(SchedulerSpec::from("ws-rand:seed=3").params.seed, Some(3));
        assert!(SchedulerSpec::parse("ws-rand:victims=2").is_err());
        assert!(SchedulerSpec::parse("ws-rand@many").is_err());
        assert!(SchedulerSpec::parse("").is_err());
    }

    #[test]
    fn resolve_returns_typed_errors_not_panics() {
        use crate::spec::SpecError;
        assert_eq!(
            SchedulerSpec::resolve("pdf").unwrap(),
            SchedulerSpec::new("pdf")
        );
        assert_eq!(
            SchedulerSpec::resolve("ws-rand@7").unwrap().params.seed,
            Some(7)
        );
        let err = SchedulerSpec::resolve("pddf").unwrap_err();
        assert!(matches!(
            err,
            SpecError::Unknown {
                axis: "scheduler",
                ..
            }
        ));
        assert!(err.to_string().contains("did you mean \"pdf\""), "{err}");
        let err = SchedulerSpec::resolve("w s").unwrap_err();
        assert!(matches!(err, SpecError::Parse(_)));
    }

    /// A scheduler that always hands out the most recently enabled task.
    struct LifoStack {
        stack: Vec<TaskId>,
    }

    impl Scheduler for LifoStack {
        fn init(&mut self, _dag: &Dag, _num_cores: usize) {
            self.stack.clear();
        }
        fn task_enabled(&mut self, task: TaskId, _enabling_core: Option<usize>) {
            self.stack.push(task);
        }
        fn next_task(&mut self, _core: usize) -> Option<TaskId> {
            self.stack.pop()
        }
        fn ready_count(&self) -> usize {
            self.stack.len()
        }
        fn name(&self) -> &'static str {
            "lifo-test"
        }
    }

    #[test]
    fn custom_factory_round_trips_through_registry() {
        let registry = SchedulerRegistry::empty();
        assert!(!registry.contains("lifo-test"));
        registry.register_fn("lifo-test", |_| Box::new(LifoStack { stack: Vec::new() }));
        assert!(registry.contains("lifo-test"));
        let sched = registry
            .build("lifo-test", &SchedulerParams::default())
            .unwrap();
        assert_eq!(sched.name(), "lifo-test");
    }

    #[test]
    fn registration_replaces_and_reports_previous() {
        let registry = SchedulerRegistry::empty();
        registry.register_fn("x", |_| Box::new(LifoStack { stack: Vec::new() }));
        let prev = registry.register(Arc::new(FnFactory {
            id: "x".to_string(),
            build: |_: &SchedulerParams| {
                Box::new(crate::central::CentralQueue::new()) as Box<dyn Scheduler>
            },
        }));
        assert!(prev.is_some());
        assert_eq!(
            registry
                .build("x", &SchedulerParams::default())
                .unwrap()
                .name(),
            "central"
        );
    }
}
