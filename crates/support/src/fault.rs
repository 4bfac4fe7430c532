//! Seeded, deterministic fault injection.
//!
//! Production code registers **named fault points** at the places where the
//! real world can go wrong — a LUT file read, a Cholesky factorization, a
//! parallel worker band — by calling [`fires`] / [`fires_at`] (or one of
//! the corruption helpers built on them). A test *arms* a set of points
//! with a seeded [`FaultPlan`]; while armed, each point's [`Schedule`]
//! decides deterministically which hits inject a failure. The degradation
//! paths downstream (typed errors, retries, serial re-runs, checkpoint
//! recovery) can then be exercised byte-reproducibly.
//!
//! Design rules:
//!
//! * **Zero cost disarmed.** Every entry point checks one relaxed atomic
//!   and returns immediately when nothing is armed — no lock, no hash, no
//!   allocation. Production binaries never arm anything.
//! * **Deterministic armed.** A firing decision is a pure function of
//!   `(plan seed, point name, hit counter | caller index)`. Points hit
//!   from worker threads must use [`fires_at`] with a stable index (band
//!   number, key index) so the decision does not depend on scheduling.
//! * **Reproducible logs.** Every firing is recorded; [`log`] returns the
//!   entries sorted, so two runs with the same plan produce byte-identical
//!   logs even when workers interleave.
//! * **One armed scope at a time.** [`arm`] holds a global lock for the
//!   lifetime of the returned guard, serializing fault tests within a
//!   process; everything disarms (and unlocks) on drop, even across a
//!   panic.

use crate::rng::fnv1a64;
use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Mutex, MutexGuard, OnceLock};

/// When a fault point injects, relative to its per-point hit stream (for
/// [`fires`]) or the caller-supplied index (for [`fires_at`]).
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Schedule {
    /// Every hit / every index.
    Always,
    /// Exactly hit `n` (0-based) — or, under [`fires_at`], exactly index
    /// `n` each time it is visited.
    Nth(u64),
    /// Every `k`-th hit/index (`hit % k == 0`).
    EveryNth(u64),
    /// A seeded Bernoulli draw per hit/index with probability `p`; the
    /// draw is a pure function of `(seed, point, n)`, so it is identical
    /// across runs and thread schedules.
    Prob(f64),
}

impl Schedule {
    fn decides(&self, seed: u64, point: &str, n: u64) -> bool {
        match *self {
            Schedule::Always => true,
            Schedule::Nth(k) => n == k,
            Schedule::EveryNth(k) => k != 0 && n.is_multiple_of(k),
            Schedule::Prob(p) => {
                let h = mix(seed, fnv1a64(point.as_bytes()), n);
                (h as f64 / u64::MAX as f64) < p
            }
        }
    }
}

/// An armed set of fault points with a seed.
#[derive(Clone, Debug, Default)]
pub struct FaultPlan {
    seed: u64,
    points: Vec<(String, Schedule)>,
}

impl FaultPlan {
    /// An empty plan with the given seed.
    pub fn new(seed: u64) -> Self {
        FaultPlan {
            seed,
            points: Vec::new(),
        }
    }

    /// Adds a point to the plan (builder style).
    pub fn point(mut self, name: &str, schedule: Schedule) -> Self {
        self.points.push((name.to_string(), schedule));
        self
    }
}

struct Registry {
    seed: u64,
    /// point name → (schedule, hits so far via [`fires`]).
    points: HashMap<String, (Schedule, u64)>,
    /// Fired events: `(point, n)` where `n` is the hit counter or index.
    fired: Vec<(String, u64)>,
}

static ARMED: AtomicBool = AtomicBool::new(false);
static REGISTRY: Mutex<Option<Registry>> = Mutex::new(None);

fn arm_lock() -> &'static Mutex<()> {
    static LOCK: OnceLock<Mutex<()>> = OnceLock::new();
    LOCK.get_or_init(|| Mutex::new(()))
}

fn registry() -> MutexGuard<'static, Option<Registry>> {
    // A panic while holding the registry lock (never expected: the locked
    // sections are straight-line) must not wedge later tests.
    REGISTRY.lock().unwrap_or_else(|e| e.into_inner())
}

/// Guard for an armed fault plan; disarms on drop.
pub struct Armed {
    _serial: MutexGuard<'static, ()>,
}

impl Drop for Armed {
    fn drop(&mut self) {
        ARMED.store(false, Ordering::SeqCst);
        *registry() = None;
    }
}

/// Arms `plan`, serializing against any other armed scope in the process
/// (the previous scope must drop first). All fault points not named in the
/// plan stay inert.
pub fn arm(plan: FaultPlan) -> Armed {
    let serial = arm_lock().lock().unwrap_or_else(|e| e.into_inner());
    *registry() = Some(Registry {
        seed: plan.seed,
        points: plan
            .points
            .into_iter()
            .map(|(name, s)| (name, (s, 0)))
            .collect(),
        fired: Vec::new(),
    });
    ARMED.store(true, Ordering::SeqCst);
    Armed { _serial: serial }
}

/// Holds the arming lock **without arming anything**: every fault point
/// stays inert until the guard drops. Tests that exercise fault-pointed
/// code paths and must observe them disarmed take this guard, so they
/// serialize against concurrently-running tests that arm those points
/// (arming is process-global; without the guard, another test's plan
/// could inject into this test's run).
pub fn quiesce() -> Armed {
    arm(FaultPlan::new(0))
}

/// True when the point injects on this hit. Hits are counted per point in
/// arrival order under a lock — use only from code whose call order is
/// deterministic (single-threaded paths); parallel callers should key the
/// decision with [`fires_at`].
#[inline]
pub fn fires(point: &str) -> bool {
    if !ARMED.load(Ordering::Relaxed) {
        return false;
    }
    fires_slow(point)
}

fn fires_slow(point: &str) -> bool {
    let mut reg = registry();
    let Some(reg) = reg.as_mut() else {
        return false;
    };
    let seed = reg.seed;
    let Some((schedule, hits)) = reg.points.get_mut(point) else {
        return false;
    };
    let n = *hits;
    *hits += 1;
    let fire = schedule.decides(seed, point, n);
    if fire {
        reg.fired.push((point.to_string(), n));
    }
    fire
}

/// True when the point injects at caller-stable `index`. The decision is a
/// pure function of `(plan seed, point, index)` — identical across runs
/// and thread schedules — so this is the form parallel code must use.
#[inline]
pub fn fires_at(point: &str, index: u64) -> bool {
    if !ARMED.load(Ordering::Relaxed) {
        return false;
    }
    fires_at_slow(point, index)
}

fn fires_at_slow(point: &str, index: u64) -> bool {
    let mut reg = registry();
    let Some(reg) = reg.as_mut() else {
        return false;
    };
    let seed = reg.seed;
    let Some((schedule, _)) = reg.points.get(point) else {
        return false;
    };
    let fire = schedule.decides(seed, point, index);
    if fire {
        reg.fired.push((point.to_string(), index));
    }
    fire
}

/// The firing log: one `"point#n"` line per injection, **sorted** (so the
/// log is byte-identical across runs regardless of worker interleaving).
pub fn log() -> Vec<String> {
    let reg = registry();
    let Some(reg) = reg.as_ref() else {
        return Vec::new();
    };
    let mut lines: Vec<String> = reg.fired.iter().map(|(p, n)| format!("{p}#{n}")).collect();
    lines.sort();
    lines
}

// ---------------------------------------------------------------------------
// Corruption helpers: the common injections, built on `fires`.
// ---------------------------------------------------------------------------

/// If the point fires, overwrites `v` with NaN. Returns whether it fired.
#[inline]
pub fn nonfinite_f32(point: &str, v: &mut f32) -> bool {
    if fires(point) {
        *v = f32::NAN;
        true
    } else {
        false
    }
}

/// If the point fires, corrupts `s` deterministically: the hit's seeded
/// hash picks truncation (drop the tail) or byte mutation (flip one ASCII
/// char). Returns whether it fired.
#[inline]
pub fn corrupt_string(point: &str, s: &mut String) -> bool {
    if !fires(point) {
        return false;
    }
    let h = {
        let reg = registry();
        let seed = reg.as_ref().map(|r| r.seed).unwrap_or(0);
        mix(seed, fnv1a64(point.as_bytes()), s.len() as u64)
    };
    if s.is_empty() {
        s.push('!');
        return true;
    }
    if h & 1 == 0 {
        // Truncate to a prefix (never the full string).
        let cut = (h as usize / 2) % s.len();
        let cut = s.floor_boundary(cut);
        s.truncate(cut);
    } else {
        // Flip one byte to a character that breaks JSON structure.
        let pos = (h as usize / 2) % s.len();
        let pos = s.floor_boundary(pos);
        let mut out = String::with_capacity(s.len());
        out.push_str(&s[..pos]);
        out.push('\u{7f}');
        let rest = &s[pos..];
        let mut it = rest.chars();
        it.next();
        out.push_str(it.as_str());
        *s = out;
    }
    true
}

/// If the point fires, panics with a recognizable message (for injecting
/// worker-thread deaths). `index` keys the decision, so arm with a
/// schedule over band/worker indices.
#[inline]
pub fn panic_at(point: &str, index: u64) {
    if fires_at(point, index) {
        panic!("injected fault: {point}#{index}");
    }
}

// ---------------------------------------------------------------------------
// Deterministic mixing
// ---------------------------------------------------------------------------

/// splitmix64-style avalanche over the three decision inputs.
fn mix(seed: u64, point_hash: u64, n: u64) -> u64 {
    let mut z = seed
        .wrapping_add(point_hash.rotate_left(17))
        .wrapping_add(n.wrapping_mul(0x9E37_79B9_7F4A_7C15));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

// A stable stand-in for the unstable `str::floor_char_boundary`.
trait FloorCharBoundary {
    fn floor_boundary(&self, i: usize) -> usize;
}

impl FloorCharBoundary for str {
    fn floor_boundary(&self, i: usize) -> usize {
        let mut i = i.min(self.len());
        while i > 0 && !self.is_char_boundary(i) {
            i -= 1;
        }
        i
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disarmed_points_never_fire() {
        assert!(!fires("nope"));
        assert!(!fires_at("nope", 3));
        let mut v = 1.0f32;
        assert!(!nonfinite_f32("nope", &mut v));
        assert!(v == 1.0);
    }

    #[test]
    fn unarmed_points_stay_inert_while_armed() {
        let _g = arm(FaultPlan::new(1).point("a", Schedule::Always));
        assert!(fires("a"));
        assert!(!fires("b"));
    }

    #[test]
    fn nth_schedule_fires_exactly_once() {
        let _g = arm(FaultPlan::new(7).point("p", Schedule::Nth(2)));
        let hits: Vec<bool> = (0..5).map(|_| fires("p")).collect();
        assert_eq!(hits, vec![false, false, true, false, false]);
        assert_eq!(log(), vec!["p#2"]);
    }

    #[test]
    fn prob_schedule_is_seed_deterministic() {
        let draw = |seed: u64| -> Vec<bool> {
            let _g = arm(FaultPlan::new(seed).point("p", Schedule::Prob(0.5)));
            (0..64).map(|_| fires("p")).collect()
        };
        assert_eq!(draw(42), draw(42));
        assert_ne!(draw(42), draw(43), "different seeds should differ");
        let fired = draw(42).iter().filter(|&&b| b).count();
        assert!(fired > 8 && fired < 56, "p=0.5 wildly off: {fired}/64");
    }

    #[test]
    fn fires_at_is_schedule_independent_of_visit_order() {
        let _g = arm(FaultPlan::new(3).point("band", Schedule::Nth(1)));
        assert!(!fires_at("band", 0));
        assert!(fires_at("band", 1));
        assert!(!fires_at("band", 2));
        // Re-visiting the same index decides identically.
        assert!(fires_at("band", 1));
        assert_eq!(log(), vec!["band#1", "band#1"]);
    }

    #[test]
    fn log_is_sorted_and_reproducible() {
        let run = || -> Vec<String> {
            let _g = arm(FaultPlan::new(9).point("x", Schedule::Always));
            // Simulate out-of-order arrival from workers.
            for i in [3u64, 0, 2, 1] {
                assert!(fires_at("x", i));
            }
            log()
        };
        let a = run();
        assert_eq!(a, vec!["x#0", "x#1", "x#2", "x#3"]);
        assert_eq!(a, run());
    }

    #[test]
    fn corrupt_string_changes_content_deterministically() {
        let corrupt = || {
            let _g = arm(FaultPlan::new(5).point("c", Schedule::Always));
            let mut s = String::from("{\"a\":[1,2,3],\"b\":\"text\"}");
            assert!(corrupt_string("c", &mut s));
            s
        };
        let a = corrupt();
        assert_ne!(a, "{\"a\":[1,2,3],\"b\":\"text\"}");
        assert_eq!(a, corrupt(), "corruption must be seed-deterministic");
    }

    #[test]
    fn quiesce_keeps_all_points_inert() {
        let _q = quiesce();
        assert!(!fires("anything"));
        assert!(!fires_at("anything", 0));
        assert!(log().is_empty());
    }

    #[test]
    fn drop_disarms() {
        {
            let _g = arm(FaultPlan::new(1).point("a", Schedule::Always));
            assert!(fires("a"));
        }
        assert!(!fires("a"));
    }
}
