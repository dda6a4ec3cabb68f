//! Hierarchical span profiles: where did the wall time go?
//!
//! A [`Profile`] aggregates span enter/exit pairs into a tree keyed by
//! **call path** (the stack of enclosing span names on one thread).
//! Each node records how often that path ran, its total inclusive
//! nanoseconds, and min/max per call; *self* time — total minus the
//! children's totals — is derived, never stored, so the invariant
//! `self = total − Σ(children)` holds by construction.
//!
//! Profiles are built two ways, and the two must agree (property-tested
//! in `tests/properties.rs`):
//!
//! 1. **Live**, by the per-thread aggregators in [`crate::trace`]: every
//!    span exit records `(path, dur_ns)` into a thread-local tree, and
//!    when a thread's root span closes the whole subtree merges into the
//!    recorder under one lock — the same batching discipline
//!    [`crate::trace::WorkerScope`] uses for events, so profiling stays
//!    cheap under the executor. The run summary's `profile` section and
//!    the `<run>.folded` flamegraph file come from this path.
//! 2. **Offline**, by [`Profile::from_events`] replaying a recorded
//!    event stream (the JSONL manifest) — what `obs_report` falls back
//!    to, and what pins the live path in tests.
//!
//! Node durations come from the recorder's monotonic clock, so child
//! intervals nest inside their parent's interval on the same thread and
//! `Σ(children total) ≤ parent total` holds per node (saturating
//! arithmetic guards the degenerate clock cases).

use crate::json::Json;
use std::collections::BTreeMap;

/// One call-path node of a [`Profile`]; see the module docs.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct ProfileNode {
    count: u64,
    total_ns: u64,
    min_ns: u64,
    max_ns: u64,
    children: BTreeMap<String, ProfileNode>,
}

impl ProfileNode {
    fn record(&mut self, dur_ns: u64) {
        if self.count == 0 {
            self.min_ns = dur_ns;
            self.max_ns = dur_ns;
        } else {
            self.min_ns = self.min_ns.min(dur_ns);
            self.max_ns = self.max_ns.max(dur_ns);
        }
        self.count += 1;
        self.total_ns += dur_ns;
    }

    fn merge(&mut self, other: &ProfileNode) {
        if other.count > 0 {
            if self.count == 0 {
                self.min_ns = other.min_ns;
                self.max_ns = other.max_ns;
            } else {
                self.min_ns = self.min_ns.min(other.min_ns);
                self.max_ns = self.max_ns.max(other.max_ns);
            }
        }
        self.count += other.count;
        self.total_ns += other.total_ns;
        for (name, child) in &other.children {
            self.children.entry(name.clone()).or_default().merge(child);
        }
    }

    /// Completed calls of this call path.
    #[must_use]
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Total inclusive nanoseconds across all calls.
    #[must_use]
    pub fn total_ns(&self) -> u64 {
        self.total_ns
    }

    /// Fastest single call, ns (0 before the first call).
    #[must_use]
    pub fn min_ns(&self) -> u64 {
        self.min_ns
    }

    /// Slowest single call, ns.
    #[must_use]
    pub fn max_ns(&self) -> u64 {
        self.max_ns
    }

    /// Sum of the direct children's inclusive totals.
    #[must_use]
    pub fn children_total_ns(&self) -> u64 {
        self.children.values().map(|c| c.total_ns).sum()
    }

    /// Self time: total minus the children's totals (saturating — a
    /// child that outlives its parent's clock reading clamps to 0).
    #[must_use]
    pub fn self_ns(&self) -> u64 {
        self.total_ns.saturating_sub(self.children_total_ns())
    }

    /// Child nodes in name order.
    pub fn children(&self) -> impl Iterator<Item = (&str, &ProfileNode)> {
        self.children.iter().map(|(k, v)| (k.as_str(), v))
    }

    fn to_json(&self, name: &str) -> Json {
        Json::obj(vec![
            ("name", Json::from(name)),
            ("count", Json::from(self.count)),
            ("total_ns", Json::from(self.total_ns)),
            ("self_ns", Json::from(self.self_ns())),
            ("min_ns", Json::from(self.min_ns)),
            ("max_ns", Json::from(self.max_ns)),
            (
                "children",
                Json::Arr(self.children.iter().map(|(n, c)| c.to_json(n)).collect()),
            ),
        ])
    }

    fn from_json(j: &Json) -> Option<(String, ProfileNode)> {
        let name = j.get("name")?.as_str()?.to_string();
        let count = j.get("count")?.as_usize()? as u64;
        let total_ns = j.get("total_ns")?.as_usize()? as u64;
        let min_ns = j.get("min_ns")?.as_usize()? as u64;
        let max_ns = j.get("max_ns")?.as_usize()? as u64;
        let mut children = BTreeMap::new();
        for c in j.get("children")?.as_arr()? {
            let (child_name, child) = ProfileNode::from_json(c)?;
            children.insert(child_name, child);
        }
        Some((
            name,
            ProfileNode {
                count,
                total_ns,
                min_ns,
                max_ns,
                children,
            },
        ))
    }
}

/// A hierarchical span profile; see the module docs.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Profile {
    roots: BTreeMap<String, ProfileNode>,
}

impl Profile {
    /// An empty profile.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// True when no span has been recorded.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.roots.is_empty()
    }

    /// Records one completed call of the call path `path` (outermost
    /// first, innermost last — the span that just closed). Intermediate
    /// nodes are created as needed; only the leaf's stats are touched.
    ///
    /// # Panics
    /// Panics on an empty path.
    pub fn record(&mut self, path: &[String], dur_ns: u64) {
        let (first, rest) = path
            .split_first()
            .expect("a call path names at least one span");
        let mut node = self.roots.entry(first.clone()).or_default();
        for name in rest {
            node = node.children.entry(name.clone()).or_default();
        }
        node.record(dur_ns);
    }

    /// Merges another profile into this one (summing counts and totals,
    /// combining min/max), node by node.
    pub fn merge(&mut self, other: &Profile) {
        for (name, root) in &other.roots {
            self.roots.entry(name.clone()).or_default().merge(root);
        }
    }

    /// Root nodes in name order.
    pub fn roots(&self) -> impl Iterator<Item = (&str, &ProfileNode)> {
        self.roots.iter().map(|(k, v)| (k.as_str(), v))
    }

    /// Sum of the roots' inclusive totals — the profile's coverage of
    /// the run's wall time (per thread trees overlap in wall time under
    /// the executor, so this can legitimately exceed the run wall).
    #[must_use]
    pub fn total_root_ns(&self) -> u64 {
        self.roots.values().map(|r| r.total_ns).sum()
    }

    /// Rebuilds a profile by replaying recorded span events (the JSONL
    /// stream): per-thread stacks grow on `enter` and record on `exit`
    /// using the event's `dur_ns`. Spans left open (no exit in the
    /// stream) are dropped, mirroring the live aggregator, so replaying
    /// a recorder's drained events reproduces its live profile exactly.
    #[must_use]
    pub fn from_events(events: &[Json]) -> Profile {
        let mut profile = Profile::new();
        let mut stacks: BTreeMap<usize, Vec<String>> = BTreeMap::new();
        for ev in events {
            let Some(kind) = ev.get("ev").and_then(Json::as_str) else {
                continue;
            };
            let Some(span) = ev.get("span").and_then(Json::as_str) else {
                continue;
            };
            let thread = ev.get("thread").and_then(Json::as_usize).unwrap_or(0);
            let stack = stacks.entry(thread).or_default();
            match kind {
                "enter" => stack.push(span.to_string()),
                "exit" if stack.last().map(String::as_str) == Some(span) => {
                    let dur = ev.get("dur_ns").and_then(Json::as_usize).unwrap_or(0) as u64;
                    profile.record(stack, dur);
                    stack.pop();
                }
                _ => {}
            }
        }
        profile
    }

    /// The summary-JSON form: an array of root nodes, each carrying
    /// `name`/`count`/`total_ns`/`self_ns`/`min_ns`/`max_ns` and a
    /// `children` array, names sorted for a stable structure.
    #[must_use]
    pub fn to_json(&self) -> Json {
        Json::Arr(self.roots.iter().map(|(n, r)| r.to_json(n)).collect())
    }

    /// Parses the [`Profile::to_json`] form back (`None` on any shape
    /// mismatch) — how `obs_report` reads a summary's profile section.
    #[must_use]
    pub fn from_json(j: &Json) -> Option<Profile> {
        let mut roots = BTreeMap::new();
        for r in j.as_arr()? {
            let (name, node) = ProfileNode::from_json(r)?;
            roots.insert(name, node);
        }
        Some(Profile { roots })
    }

    /// Folded-stacks text (`root;child;leaf <self_ns>`, one line per
    /// node): the format `flamegraph.pl` and speedscope ingest directly.
    /// Values are **self** nanoseconds, so a flamegraph's widths sum
    /// correctly; zero-self nodes are skipped.
    #[must_use]
    pub fn folded(&self) -> String {
        let mut out = String::new();
        for (path, node) in self.flatten() {
            if node.self_ns() > 0 {
                out.push_str(&format!("{path} {}\n", node.self_ns()));
            }
        }
        out
    }

    /// Every node with its `;`-joined call path, in depth-first name
    /// order.
    #[must_use]
    pub fn flatten(&self) -> Vec<(String, &ProfileNode)> {
        fn walk<'a>(
            prefix: &str,
            name: &str,
            node: &'a ProfileNode,
            out: &mut Vec<(String, &'a ProfileNode)>,
        ) {
            let path = if prefix.is_empty() {
                name.to_string()
            } else {
                format!("{prefix};{name}")
            };
            for (child_name, child) in &node.children {
                walk(&path, child_name, child, out);
            }
            out.push((path, node));
        }
        let mut out = Vec::new();
        for (name, root) in &self.roots {
            walk("", name, root, &mut out);
        }
        out.sort_by(|a, b| a.0.cmp(&b.0));
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn path(names: &[&str]) -> Vec<String> {
        names.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn record_builds_the_tree_and_self_time_subtracts_children() {
        let mut p = Profile::new();
        p.record(&path(&["run", "train"]), 70);
        p.record(&path(&["run", "eval"]), 20);
        p.record(&path(&["run"]), 100);
        let (name, run) = p.roots().next().unwrap();
        assert_eq!(name, "run");
        assert_eq!(run.count(), 1);
        assert_eq!(run.total_ns(), 100);
        assert_eq!(run.children_total_ns(), 90);
        assert_eq!(run.self_ns(), 10);
        let children: Vec<_> = run.children().collect();
        assert_eq!(children[0].0, "eval");
        assert_eq!(children[1].0, "train");
        assert_eq!(children[1].1.self_ns(), 70);
    }

    #[test]
    fn min_max_track_per_call_durations() {
        let mut p = Profile::new();
        for dur in [30, 10, 20] {
            p.record(&path(&["epoch"]), dur);
        }
        let (_, epoch) = p.roots().next().unwrap();
        assert_eq!(epoch.count(), 3);
        assert_eq!(epoch.total_ns(), 60);
        assert_eq!(epoch.min_ns(), 10);
        assert_eq!(epoch.max_ns(), 30);
    }

    #[test]
    fn merge_sums_counts_and_combines_extremes() {
        let mut a = Profile::new();
        a.record(&path(&["job", "train"]), 50);
        a.record(&path(&["job"]), 60);
        let mut b = Profile::new();
        b.record(&path(&["job"]), 200);
        b.record(&path(&["other"]), 5);
        a.merge(&b);
        let job = a.roots().find(|(n, _)| *n == "job").unwrap().1;
        assert_eq!(job.count(), 2);
        assert_eq!(job.total_ns(), 260);
        assert_eq!(job.min_ns(), 60);
        assert_eq!(job.max_ns(), 200);
        assert_eq!(a.total_root_ns(), 265);
    }

    #[test]
    fn json_round_trip_is_exact() {
        let mut p = Profile::new();
        p.record(&path(&["run", "train", "epoch"]), 7);
        p.record(&path(&["run", "train"]), 11);
        p.record(&path(&["run"]), 20);
        let j = p.to_json();
        let back = Profile::from_json(&j).expect("parses");
        assert_eq!(back, p);
        // And the serialized form survives the JSON writer/parser too.
        let reparsed = Json::parse(&j.pretty()).unwrap();
        assert_eq!(Profile::from_json(&reparsed).unwrap(), p);
    }

    #[test]
    fn folded_lines_carry_self_ns_per_path() {
        let mut p = Profile::new();
        p.record(&path(&["run", "train"]), 70);
        p.record(&path(&["run"]), 100);
        let folded = p.folded();
        let lines: Vec<&str> = folded.lines().collect();
        assert_eq!(lines, vec!["run 30", "run;train 70"]);
    }

    #[test]
    fn from_events_replays_interleaved_threads() {
        let enter = |span: &str, thread: usize| {
            Json::obj(vec![
                ("ev", Json::from("enter")),
                ("span", Json::from(span)),
                ("thread", Json::from(thread)),
            ])
        };
        let exit = |span: &str, thread: usize, dur: u64| {
            Json::obj(vec![
                ("ev", Json::from("exit")),
                ("span", Json::from(span)),
                ("thread", Json::from(thread)),
                ("dur_ns", Json::from(dur)),
            ])
        };
        let events = vec![
            enter("job", 1),
            enter("job", 2),
            enter("train", 2),
            exit("train", 2, 40),
            exit("job", 1, 10),
            exit("job", 2, 50),
            enter("dangling", 1), // no exit: dropped
        ];
        let p = Profile::from_events(&events);
        let job = p.roots().find(|(n, _)| *n == "job").unwrap().1;
        assert_eq!(job.count(), 2);
        assert_eq!(job.total_ns(), 60);
        assert_eq!(job.self_ns(), 20);
        assert_eq!(job.children().next().unwrap().1.total_ns(), 40);
        assert!(p.roots().all(|(n, _)| n != "dangling"));
    }
}
