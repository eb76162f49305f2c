//! In-memory spans recorded around calls into the workspace's layers.
//!
//! A [`Trace`] keeps every span (name, start, end, parent) in memory and is
//! reduced at the end of a run.  A span's *self time* is its duration minus
//! the part of its interval covered by its child spans; summed by name it
//! gives the per-layer split.  Root spans (no parent) are the traced
//! operations themselves, so their self time is the part of the traced
//! wall time no layer span accounts for.

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

/// One recorded span, as offsets from the trace origin.
#[derive(Clone, Debug)]
pub struct Span {
    /// Layer-qualified name (`"sim.engine"`, `"serve.accept"`, …).
    pub name: &'static str,
    /// Index of the enclosing span, `None` for a root.
    pub parent: Option<usize>,
    /// Start offset.
    pub start: Duration,
    /// End offset.
    pub end: Duration,
}

/// A single-threaded span recorder.  Threads that trace concurrently each
/// keep their own and [`Trace::absorb`] them at the end.
pub struct Trace {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Trace {
    /// An empty trace whose offsets count from `origin`.
    pub fn new(origin: Instant) -> Trace {
        Trace {
            origin,
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// Open a span under the innermost open one; returns its id.
    pub fn enter(&mut self, name: &'static str) -> usize {
        let now = self.origin.elapsed();
        self.spans.push(Span {
            name,
            parent: self.open.last().copied(),
            start: now,
            end: now,
        });
        let id = self.spans.len() - 1;
        self.open.push(id);
        id
    }

    /// Close span `id`, which must be the innermost open one.
    pub fn exit(&mut self, id: usize) {
        assert_eq!(self.open.pop(), Some(id), "spans close innermost first");
        self.spans[id].end = self.origin.elapsed();
    }

    /// Run `f` inside a leaf span called `name`.
    pub fn time<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> R {
        let id = self.enter(name);
        let out = f();
        self.exit(id);
        out
    }

    /// Record an already-measured interval as a child of `parent` (or of
    /// the innermost open span when `None`); returns its id.
    pub fn record(
        &mut self,
        name: &'static str,
        parent: Option<usize>,
        start: Instant,
        end: Instant,
    ) -> usize {
        let offset = |t: Instant| t.saturating_duration_since(self.origin);
        self.spans.push(Span {
            name,
            parent: parent.or_else(|| self.open.last().copied()),
            start: offset(start),
            end: offset(end),
        });
        self.spans.len() - 1
    }

    /// Move another trace's spans (same origin) into this one.
    pub fn absorb(&mut self, other: Trace) {
        let base = self.spans.len();
        self.spans.extend(other.spans.into_iter().map(|mut span| {
            span.parent = span.parent.map(|p| p + base);
            span
        }));
    }

    /// The per-name totals: `(total self time, span count)`.
    pub fn self_times(&self) -> BTreeMap<&'static str, (Duration, usize)> {
        let mut children: Vec<Vec<usize>> = vec![Vec::new(); self.spans.len()];
        for (i, span) in self.spans.iter().enumerate() {
            if let Some(p) = span.parent {
                children[p].push(i);
            }
        }
        let mut totals: BTreeMap<&'static str, (Duration, usize)> = BTreeMap::new();
        for (i, span) in self.spans.iter().enumerate() {
            let kids: Vec<(Duration, Duration)> = children[i]
                .iter()
                .map(|&c| (self.spans[c].start, self.spans[c].end))
                .collect();
            let entry = totals.entry(span.name).or_default();
            entry.0 += self_time((span.start, span.end), &kids);
            entry.1 += 1;
        }
        totals
    }

    /// Wall time of the root spans, and the part of it no child covers.
    pub fn root_accounting(&self) -> (Duration, Duration) {
        let totals = self.self_times();
        let mut wall = Duration::ZERO;
        let mut unattributed = Duration::ZERO;
        let mut roots: Vec<&'static str> = Vec::new();
        for span in self.spans.iter().filter(|s| s.parent.is_none()) {
            wall += span.end.saturating_sub(span.start);
            if !roots.contains(&span.name) {
                roots.push(span.name);
            }
        }
        for name in roots {
            unattributed += totals[name].0;
        }
        (wall, unattributed)
    }
}

/// `parent`'s duration minus the part of it covered by the union of the
/// `children` intervals (each clipped to the parent).
pub fn self_time(parent: (Duration, Duration), children: &[(Duration, Duration)]) -> Duration {
    let (p_start, p_end) = parent;
    let mut clipped: Vec<(Duration, Duration)> = children
        .iter()
        .map(|&(s, e)| (s.max(p_start), e.min(p_end)))
        .filter(|(s, e)| s < e)
        .collect();
    clipped.sort();
    let mut covered = Duration::ZERO;
    let mut reach = p_start;
    for (s, e) in clipped {
        let s = s.max(reach);
        if e > s {
            covered += e - s;
            reach = e;
        }
    }
    p_end.saturating_sub(p_start).saturating_sub(covered)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ms(v: u64) -> Duration {
        Duration::from_millis(v)
    }

    #[test]
    fn self_time_subtracts_the_union_of_clipped_children() {
        // Disjoint children.
        assert_eq!(
            self_time((ms(0), ms(100)), &[(ms(10), ms(20)), (ms(50), ms(80))]),
            ms(60)
        );
        // Overlapping children are counted once.
        assert_eq!(
            self_time((ms(0), ms(100)), &[(ms(10), ms(40)), (ms(30), ms(60))]),
            ms(50)
        );
        // A child sticking out of the parent is clipped to it.
        assert_eq!(self_time((ms(0), ms(100)), &[(ms(90), ms(150))]), ms(90));
        // A fully covered parent has no self time; no children, all of it.
        assert_eq!(self_time((ms(0), ms(100)), &[(ms(0), ms(100))]), ms(0));
        assert_eq!(self_time((ms(5), ms(25)), &[]), ms(20));
    }

    #[test]
    fn trace_totals_self_time_by_name_and_accounts_for_root_wall() {
        let origin = Instant::now();
        let mut t = Trace::new(origin);
        let root = t.enter("pass");
        t.record("leaf", None, origin + ms(10), origin + ms(30));
        t.record("leaf", None, origin + ms(40), origin + ms(45));
        t.exit(root);
        // Pin the root's interval so the arithmetic is exact.
        t.spans[root].start = ms(0);
        t.spans[root].end = ms(100);
        let totals = t.self_times();
        assert_eq!(totals["leaf"], (ms(25), 2));
        assert_eq!(totals["pass"], (ms(75), 1));
        assert_eq!(t.root_accounting(), (ms(100), ms(75)));

        let mut other = Trace::new(origin);
        let r = other.record("pass", None, origin, origin + ms(10));
        other.record("leaf", Some(r), origin + ms(2), origin + ms(4));
        t.absorb(other);
        assert_eq!(t.self_times()["leaf"], (ms(27), 3));
        assert_eq!(t.root_accounting(), (ms(110), ms(83)));
    }
}
