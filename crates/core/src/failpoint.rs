//! Deterministic fault injection: named failpoint sites threaded through
//! the concurrency- and durability-critical layers (`dynamic` compaction,
//! the `shard` worker and its rebalancing, and the `wal` write path and
//! checkpointer via its `VirtualFile` seam).
//!
//! ## Model
//!
//! A **site** is a static string naming one injection point (e.g.
//! `"wal.fsync.err"`). A **spec** arms a site with a trigger and an
//! action:
//!
//! ```text
//! SPEC    := [TRIGGER ':'] ACTION
//! TRIGGER := 'once' | N | '*' K        (default: every hit)
//! ACTION  := 'panic' | 'error' | 'trigger' | 'delay(MS)'
//! ```
//!
//! * `once` / `N` — fire exactly once, at the first / N-th hit (1-based).
//! * `*K` — fire on every K-th hit (a failure *storm*).
//! * `panic` — panic at the site (a worker death is fail-stop: in-flight
//!   tickets poison, they never carry a wrong answer).
//! * `error` — the site injects a typed [`InjectedFault`] I/O error.
//! * `trigger` — the site takes its alternate branch (skip a fence, tear
//!   a write, oversize a batch — whatever the site documents).
//! * `delay(MS)` — sleep, perturbing the schedule without failing.
//!
//! A `Schedule` is a set of `site=spec` pairs; `Schedule::random`
//! derives one deterministically from a seed (splitmix64), which is how
//! the proptest harness enumerates worst-case schedules and how a failing
//! case is replayed: the seed *is* the repro, and
//! `--failpoint site=spec` on the CLI re-arms any single site by hand.
//!
//! ## Fail-stop stance (fsyncgate)
//!
//! An injected storage error must surface as a typed error and stop the
//! journal — never a silent retry. After a failed fsync the page cache
//! state is unknowable, so [`crate::wal::Journal`] fail-stops: every
//! subsequent operation keeps failing. The harness asserts both halves
//! (first error typed, second call still an error).
//!
//! ## Cost when disabled
//!
//! Without the `failpoints` cargo feature every entry point here is an
//! `#[inline(always)]` empty body returning a constant — call sites
//! compile to nothing: no registry, no atomics, no branches on the hot
//! path.

use std::io;

/// A typed injected I/O fault, carried as the inner error of the
/// `io::Error` a failpoint site returns. Downstream layers surface it
/// unchanged (fail-stop), so tests can [`is_injected`]-check that an
/// observed failure is the harness's own, not an accidental one.
#[derive(Debug)]
pub struct InjectedFault {
    /// The site that fired.
    pub site: String,
}

impl std::fmt::Display for InjectedFault {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "injected fault at failpoint '{}'", self.site)
    }
}

impl std::error::Error for InjectedFault {}

/// Build the `io::Error` a firing `error`-action site injects.
pub fn injected_io(site: &str) -> io::Error {
    io::Error::other(InjectedFault { site: site.to_string() })
}

/// `true` when `e` is (or wraps) an [`InjectedFault`] from this harness.
pub fn is_injected(e: &io::Error) -> bool {
    let mut src: Option<&(dyn std::error::Error + 'static)> =
        e.get_ref().map(|r| r as &(dyn std::error::Error + 'static));
    while let Some(s) = src {
        if s.is::<InjectedFault>() {
            return true;
        }
        src = s.source();
    }
    false
}

/// Failpoint sites in the `dynamic` layer (compaction state machine).
pub const DYNAMIC_SITES: &[&str] = &[
    "dynamic.stage.abort", // abort a compaction right after it stages
    "dynamic.step.skip",   // swallow step budget: swap delayed across a burst
    "dynamic.step.starve", // clamp every step to budget 1 (starvation)
    "dynamic.swap.panic",  // die at the start of the shadow-index swap
];

/// Failpoint sites in the `shard` layer (worker, rebalance protocol,
/// queues).
pub const SHARD_SITES: &[&str] = &[
    "shard.worker.panic",      // die or stall with a drained batch in hand
    "shard.batch.oversize",    // one write window ignores max_batch
    "shard.fence.skip",        // withhold one due publish + fence, forced later
    "shard.split.pre_publish", // split: after children built, before layout publish
    "shard.split.post_close",  // split: after the old queue closed
    "shard.merge.handoff",     // merge: before mailing the survivor
    "shard.queue.push_fail",   // queue push failure storm (re-route path)
];

/// Failpoint sites in the `wal` layer: the `VirtualFile` seam, which log
/// segments, segment preparation and checkpoint files all write through,
/// and the checkpoint protocol's steps.
pub const WAL_SITES: &[&str] = &[
    "wal.write.err",       // injected write error (fail-stop)
    "wal.fsync.err",       // injected fsync error (fail-stop, fsyncgate)
    "wal.write.short",     // short write: tear inside a checksummed frame
    "wal.write.misdirect", // write lands at a stale offset
    "wal.write.duplicate", // the buffer is written twice
    "wal.ckpt.begin",      // a checkpoint starts: stall or kill the checkpointer
    "wal.ckpt.renamed",    // checkpoint renamed in place, directory not yet fsynced
    "wal.ckpt.durable",    // checkpoint durable, superseded segments not yet deleted
    "wal.ckpt.failed",     // a checkpointer job's failure is recorded for its journal
];

#[cfg(feature = "failpoints")]
mod enabled {
    use std::collections::HashMap;
    use std::sync::{Mutex, OnceLock};
    use std::time::Duration;

    /// What a firing site does.
    #[derive(Clone, Copy, Debug, PartialEq, Eq)]
    pub enum FpAction {
        /// Panic at the site (worker death; fail-stop).
        Panic,
        /// Inject a typed I/O error.
        Error,
        /// Take the site's documented alternate branch.
        Trigger,
        /// Sleep this many milliseconds (schedule perturbation).
        Delay(u64),
    }

    /// When a site fires.
    #[derive(Clone, Copy, Debug, PartialEq, Eq)]
    pub enum FpWhen {
        /// Every hit.
        Always,
        /// Exactly once, at the N-th hit (1-based).
        Nth(u64),
        /// Every K-th hit.
        Every(u64),
    }

    /// A parsed `site=spec` arm: trigger + action.
    #[derive(Clone, Copy, Debug, PartialEq, Eq)]
    pub struct FpSpec {
        pub when: FpWhen,
        pub action: FpAction,
    }

    impl FpSpec {
        /// Parse `[TRIGGER:]ACTION` (see the module docs for the grammar).
        pub fn parse(s: &str) -> Result<FpSpec, String> {
            let (trig, act) = match s.split_once(':') {
                Some((t, a)) => (Some(t.trim()), a.trim()),
                None => (None, s.trim()),
            };
            let when = match trig {
                None => FpWhen::Always,
                Some("once") => FpWhen::Nth(1),
                Some(t) if t.starts_with('*') => {
                    let k: u64 = t[1..]
                        .parse()
                        .map_err(|_| format!("bad every-k trigger '{t}' in spec '{s}'"))?;
                    if k == 0 {
                        return Err(format!("every-k trigger must be >= 1 in spec '{s}'"));
                    }
                    FpWhen::Every(k)
                }
                Some(t) => {
                    let n: u64 =
                        t.parse().map_err(|_| format!("bad nth trigger '{t}' in spec '{s}'"))?;
                    if n == 0 {
                        return Err(format!("nth trigger is 1-based in spec '{s}'"));
                    }
                    FpWhen::Nth(n)
                }
            };
            let action = match act {
                "panic" => FpAction::Panic,
                "error" => FpAction::Error,
                "trigger" | "on" => FpAction::Trigger,
                _ => {
                    let ms = act
                        .strip_prefix("delay(")
                        .and_then(|r| r.strip_suffix(')'))
                        .and_then(|ms| ms.parse::<u64>().ok())
                        .ok_or_else(|| {
                            format!(
                                "bad action '{act}' in spec '{s}' \
                                 (expected panic|error|trigger|delay(MS))"
                            )
                        })?;
                    // Cap so an adversarial spec can't hang the harness.
                    FpAction::Delay(ms.min(100))
                }
            };
            Ok(FpSpec { when, action })
        }
    }

    impl std::fmt::Display for FpSpec {
        fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
            match self.when {
                FpWhen::Always => {}
                FpWhen::Nth(1) => write!(f, "once:")?,
                FpWhen::Nth(n) => write!(f, "{n}:")?,
                FpWhen::Every(k) => write!(f, "*{k}:")?,
            }
            match self.action {
                FpAction::Panic => write!(f, "panic"),
                FpAction::Error => write!(f, "error"),
                FpAction::Trigger => write!(f, "trigger"),
                FpAction::Delay(ms) => write!(f, "delay({ms})"),
            }
        }
    }

    #[derive(Default)]
    struct SiteState {
        spec: Option<FpSpec>,
        hits: u64,
        fired: u64,
    }

    fn registry() -> &'static Mutex<HashMap<String, SiteState>> {
        static REGISTRY: OnceLock<Mutex<HashMap<String, SiteState>>> = OnceLock::new();
        REGISTRY.get_or_init(|| Mutex::new(HashMap::new()))
    }

    /// `true` in builds that carry the harness.
    pub const fn enabled() -> bool {
        true
    }

    /// Arm `site` with `spec` (replacing any previous arm; hit counts
    /// reset).
    pub fn configure(site: &str, spec: &str) -> Result<(), String> {
        let parsed = FpSpec::parse(spec)?;
        let mut reg = registry().lock().expect("failpoint registry poisoned");
        reg.insert(site.to_string(), SiteState { spec: Some(parsed), hits: 0, fired: 0 });
        Ok(())
    }

    /// Arm from one `site=spec` string (the CLI `--failpoint` form).
    pub fn configure_str(arm: &str) -> Result<(), String> {
        let (site, spec) = arm
            .split_once('=')
            .ok_or_else(|| format!("bad failpoint arm '{arm}' (expected site=spec)"))?;
        configure(site.trim(), spec.trim())
    }

    /// Disarm every site and forget all hit counts.
    pub fn reset() {
        registry().lock().expect("failpoint registry poisoned").clear();
    }

    /// Times `site` was evaluated since the last [`reset`] (armed or not).
    pub fn hits(site: &str) -> u64 {
        registry()
            .lock()
            .expect("failpoint registry poisoned")
            .get(site)
            .map(|s| s.hits)
            .unwrap_or(0)
    }

    /// Times `site` actually fired since the last [`reset`].
    pub fn fired(site: &str) -> u64 {
        registry()
            .lock()
            .expect("failpoint registry poisoned")
            .get(site)
            .map(|s| s.fired)
            .unwrap_or(0)
    }

    /// Evaluate a site hit: advance its counter and return the action to
    /// perform now, if its trigger matched. The registry lock is released
    /// before the caller acts (a panic never poisons the registry).
    pub fn eval(site: &str) -> Option<FpAction> {
        let mut reg = registry().lock().expect("failpoint registry poisoned");
        let st = reg.entry(site.to_string()).or_default();
        st.hits += 1;
        let fire = match st.spec {
            None => false,
            Some(FpSpec { when: FpWhen::Always, .. }) => true,
            Some(FpSpec { when: FpWhen::Nth(n), .. }) => st.hits == n,
            Some(FpSpec { when: FpWhen::Every(k), .. }) => st.hits.is_multiple_of(k),
        };
        if fire {
            st.fired += 1;
        }
        let action = st.spec.map(|s| s.action);
        drop(reg);
        if fire {
            action
        } else {
            None
        }
    }

    /// Hit a site whose only meaningful actions are panic/delay.
    pub fn hit(site: &str) {
        match eval(site) {
            Some(FpAction::Panic) => panic!("failpoint {site}: injected panic"),
            Some(FpAction::Delay(ms)) => std::thread::sleep(Duration::from_millis(ms)),
            _ => {}
        }
    }

    /// Hit a site with an alternate branch: `true` when the caller should
    /// take it. Panic/delay actions are handled here (a delay also takes
    /// the branch — a perturbed schedule is the point).
    pub fn triggered(site: &str) -> bool {
        match eval(site) {
            None => false,
            Some(FpAction::Panic) => panic!("failpoint {site}: injected panic"),
            Some(FpAction::Delay(ms)) => {
                std::thread::sleep(Duration::from_millis(ms));
                true
            }
            Some(FpAction::Error | FpAction::Trigger) => true,
        }
    }

    /// Hit an I/O site: `Some(err)` when a typed fault must be injected.
    pub fn io_error(site: &str) -> Option<std::io::Error> {
        match eval(site) {
            None => None,
            Some(FpAction::Panic) => panic!("failpoint {site}: injected panic"),
            Some(FpAction::Delay(ms)) => {
                std::thread::sleep(Duration::from_millis(ms));
                None
            }
            Some(FpAction::Error | FpAction::Trigger) => Some(super::injected_io(site)),
        }
    }

    // -----------------------------------------------------------------------
    // The deterministic schedule driver
    // -----------------------------------------------------------------------

    /// splitmix64 — a tiny, seed-robust generator; the whole schedule is
    /// a pure function of the seed, so a failing schedule replays from
    /// its seed alone.
    pub struct FpRng(u64);

    impl FpRng {
        pub fn new(seed: u64) -> FpRng {
            FpRng(seed)
        }

        pub fn next_u64(&mut self) -> u64 {
            self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        }

        /// Uniform in `0..n` (n >= 1).
        pub fn below(&mut self, n: u64) -> u64 {
            self.next_u64() % n.max(1)
        }
    }

    /// One enumerable fault schedule: a set of `site=spec` arms.
    #[derive(Clone, Debug, PartialEq, Eq)]
    pub struct Schedule(pub Vec<(String, String)>);

    impl Schedule {
        /// Derive a schedule from `seed` over a menu of
        /// `(site, allowed actions)` rows: pick 1–3 distinct sites, then a
        /// trigger (always / once / nth / every-k) and an allowed action
        /// for each. Deterministic: same seed, same menu → same schedule.
        pub fn random(seed: u64, menu: &[(&str, &[&str])]) -> Schedule {
            let mut rng = FpRng::new(seed);
            let want = 1 + rng.below(3.min(menu.len() as u64)) as usize;
            let mut picked: Vec<usize> = Vec::new();
            while picked.len() < want {
                let i = rng.below(menu.len() as u64) as usize;
                if !picked.contains(&i) {
                    picked.push(i);
                }
            }
            picked.sort_unstable(); // stable site order for readable repros
            let arms = picked
                .into_iter()
                .map(|i| {
                    let (site, actions) = menu[i];
                    let action = actions[rng.below(actions.len() as u64) as usize];
                    let spec = match rng.below(4) {
                        0 => action.to_string(),
                        1 => format!("once:{action}"),
                        2 => format!("{}:{action}", 1 + rng.below(8)),
                        _ => format!("*{}:{action}", 2 + rng.below(4)),
                    };
                    (site.to_string(), spec)
                })
                .collect();
            Schedule(arms)
        }

        /// Parse `site=spec;site=spec` (the [`std::fmt::Display`] form).
        pub fn parse(s: &str) -> Result<Schedule, String> {
            let mut arms = Vec::new();
            for part in s.split(';').filter(|p| !p.trim().is_empty()) {
                let (site, spec) =
                    part.split_once('=').ok_or_else(|| format!("bad schedule arm '{part}'"))?;
                FpSpec::parse(spec.trim())?;
                arms.push((site.trim().to_string(), spec.trim().to_string()));
            }
            Ok(Schedule(arms))
        }

        /// Reset the registry and arm every site of this schedule.
        pub fn install(&self) -> Result<(), String> {
            reset();
            for (site, spec) in &self.0 {
                configure(site, spec)?;
            }
            Ok(())
        }

        /// `true` when any arm uses the given action name.
        pub fn uses_action(&self, action: &str) -> bool {
            self.0.iter().any(|(_, spec)| spec.ends_with(action))
        }

        /// `true` when any arm targets the given site.
        pub fn arms_site(&self, site: &str) -> bool {
            self.0.iter().any(|(s, _)| s == site)
        }
    }

    impl std::fmt::Display for Schedule {
        fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
            for (i, (site, spec)) in self.0.iter().enumerate() {
                if i > 0 {
                    write!(f, ";")?;
                }
                write!(f, "{site}={spec}")?;
            }
            Ok(())
        }
    }
}

#[cfg(feature = "failpoints")]
pub use enabled::*;

#[cfg(not(feature = "failpoints"))]
mod disabled {
    //! Zero-cost stand-ins: every function is an `#[inline(always)]`
    //! constant, so armed-site checks vanish from release code entirely.

    /// `false` in builds without the harness.
    #[inline(always)]
    pub const fn enabled() -> bool {
        false
    }

    /// Rejected: the build carries no registry.
    pub fn configure(_site: &str, _spec: &str) -> Result<(), String> {
        Err("polyfit was built without the `failpoints` feature".into())
    }

    /// Rejected: the build carries no registry.
    pub fn configure_str(_arm: &str) -> Result<(), String> {
        Err("polyfit was built without the `failpoints` feature".into())
    }

    /// No-op.
    #[inline(always)]
    pub fn reset() {}

    /// Always 0.
    #[inline(always)]
    pub fn hits(_site: &str) -> u64 {
        0
    }

    /// Always 0.
    #[inline(always)]
    pub fn fired(_site: &str) -> u64 {
        0
    }

    /// No-op.
    #[inline(always)]
    pub fn hit(_site: &str) {}

    /// Never takes the alternate branch.
    #[inline(always)]
    pub fn triggered(_site: &str) -> bool {
        false
    }

    /// Never injects.
    #[inline(always)]
    pub fn io_error(_site: &str) -> Option<std::io::Error> {
        None
    }
}

#[cfg(not(feature = "failpoints"))]
pub use disabled::*;

#[cfg(all(test, feature = "failpoints"))]
mod tests {
    use super::*;
    use std::sync::{Mutex, MutexGuard, OnceLock};

    /// The registry is process-global; tests touching it serialize here.
    fn serial() -> MutexGuard<'static, ()> {
        static LOCK: OnceLock<Mutex<()>> = OnceLock::new();
        match LOCK.get_or_init(|| Mutex::new(())).lock() {
            Ok(g) => g,
            Err(p) => p.into_inner(),
        }
    }

    #[test]
    fn spec_grammar_roundtrips() {
        for s in ["panic", "once:error", "3:trigger", "*2:delay(5)"] {
            let spec = FpSpec::parse(s).unwrap();
            assert_eq!(spec.to_string(), s, "canonical form");
        }
        assert!(FpSpec::parse("0:panic").is_err(), "nth is 1-based");
        assert!(FpSpec::parse("*0:panic").is_err());
        assert!(FpSpec::parse("explode").is_err());
        assert!(FpSpec::parse("delay(x)").is_err());
    }

    #[test]
    fn triggers_fire_at_the_right_hits() {
        let _g = serial();
        reset();
        configure("t.nth", "3:trigger").unwrap();
        let fired: Vec<bool> = (0..5).map(|_| triggered("t.nth")).collect();
        assert_eq!(fired, [false, false, true, false, false]);
        configure("t.every", "*2:trigger").unwrap();
        let fired: Vec<bool> = (0..6).map(|_| triggered("t.every")).collect();
        assert_eq!(fired, [false, true, false, true, false, true]);
        assert_eq!(hits("t.every"), 6);
        assert_eq!(super::fired("t.every"), 3);
        reset();
        assert!(!triggered("t.nth"), "reset disarms");
    }

    #[test]
    fn injected_errors_are_typed_and_detectable() {
        let _g = serial();
        reset();
        configure("t.io", "error").unwrap();
        let e = io_error("t.io").expect("armed site must inject");
        assert!(is_injected(&e), "typed InjectedFault: {e}");
        assert!(e.to_string().contains("t.io"));
        assert!(!is_injected(&std::io::Error::other("organic")));
        reset();
        assert!(io_error("t.io").is_none());
    }

    #[test]
    fn schedules_are_seed_deterministic() {
        let menu: &[(&str, &[&str])] =
            &[("a", &["panic", "trigger"]), ("b", &["error"]), ("c", &["delay(1)"])];
        for seed in 0..50u64 {
            let s1 = Schedule::random(seed, menu);
            let s2 = Schedule::random(seed, menu);
            assert_eq!(s1, s2, "seed {seed} must replay identically");
            assert!(!s1.0.is_empty() && s1.0.len() <= 3);
            // Every arm parses back through the public grammar.
            let rt = Schedule::parse(&s1.to_string()).unwrap();
            assert_eq!(rt, s1, "display/parse roundtrip, seed {seed}");
        }
        // Different seeds explore different schedules.
        let distinct: std::collections::HashSet<String> =
            (0..50).map(|s| Schedule::random(s, menu).to_string()).collect();
        assert!(distinct.len() > 10, "only {} distinct schedules", distinct.len());
    }

    #[test]
    fn one_shot_panic_spec_panics_exactly_once() {
        let _g = serial();
        reset();
        configure("t.boom", "2:panic").unwrap();
        hit("t.boom"); // hit 1: armed for the 2nd
        let r = std::panic::catch_unwind(|| hit("t.boom"));
        assert!(r.is_err(), "2nd hit panics");
        hit("t.boom"); // 3rd hit: one-shot, no panic
        reset();
    }
}
