//! Minimal property-based testing.
//!
//! A deliberate subset of proptest, written against `std` only:
//!
//! * **Seeded case generation** — every case derives from a fixed base seed
//!   (`Config::seed`, overridable with the `TESTKIT_PROP_SEED` environment
//!   variable), so a failing run is reproducible by rerunning the test.
//! * **Shrinking** — when a case fails, the runner walks the strategy's
//!   [`Strategy::shrink`] candidates (integers bisect toward the range
//!   start, vectors drop elements and shrink members, strings drop and
//!   simplify characters) and reports the smallest failing value it found.
//! * **Persisted regression seeds** — [`Config::with_regressions`] points at
//!   a proptest-style `proptest-regressions/*.txt` file. Its `cc <hex>`
//!   lines are replayed *before* any fresh cases (the first 16 hex digits
//!   seed the case), and new failures print a ready-to-paste `cc` line.
//!   Set `TESTKIT_PERSIST_REGRESSIONS=1` to append it automatically.
//!
//! Properties are closures returning `Result<(), String>`; the
//! [`prop_assert!`](crate::prop_assert), [`prop_assert_eq!`](crate::prop_assert_eq)
//! and [`prop_assert_ne!`](crate::prop_assert_ne) macros early-return the
//! `Err`. Panics inside the property are caught and treated as failures, so
//! `unwrap()` in a property shrinks like an assertion.
//!
//! ```
//! use testkit::prop::{self, Config};
//! use testkit::prop_assert_eq;
//!
//! prop::check(&Config::cases(64), &prop::vec(prop::range(0u64..100), 0..8), |v| {
//!     let mut w = v.clone();
//!     w.reverse();
//!     w.reverse();
//!     prop_assert_eq!(&w, v);
//!     Ok(())
//! });
//! ```

use crate::rng::{splitmix64, Rng, SampleRange};
use std::fmt::Debug;
use std::ops::Range;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};

/// Runner configuration.
#[derive(Debug, Clone)]
pub struct Config {
    /// Number of fresh cases to generate.
    pub cases: u32,
    /// Cap on total shrink-candidate evaluations after a failure.
    pub max_shrink_iters: u32,
    /// Base seed for case derivation. Fixed by default so hermetic runs are
    /// reproducible; override with `TESTKIT_PROP_SEED`.
    pub seed: u64,
    /// Optional proptest-compatible regression-seed file.
    pub regressions: Option<PathBuf>,
}

impl Default for Config {
    fn default() -> Self {
        let seed = std::env::var("TESTKIT_PROP_SEED")
            .ok()
            .and_then(|s| s.parse().ok())
            .unwrap_or(0xC0FF_EE5E_ED01_D00D);
        Config {
            cases: 256,
            max_shrink_iters: 2048,
            seed,
            regressions: None,
        }
    }
}

impl Config {
    /// Default config with a custom case count.
    pub fn cases(cases: u32) -> Self {
        Config {
            cases,
            ..Config::default()
        }
    }

    /// Attach a regression-seed file (proptest `cc` format).
    pub fn with_regressions(mut self, path: impl Into<PathBuf>) -> Self {
        self.regressions = Some(path.into());
        self
    }
}

/// A value generator with optional shrinking.
pub trait Strategy {
    /// The generated value type.
    type Value: Clone + Debug;

    /// Generate one value from the seeded generator.
    fn generate(&self, rng: &mut Rng) -> Self::Value;

    /// Propose strictly-simpler variants of a failing value (may be empty).
    fn shrink(&self, _value: &Self::Value) -> Vec<Self::Value> {
        Vec::new()
    }

    /// Map the generated value (shrinking does not propagate through the
    /// map; prefer mapping inside the property when shrinking matters).
    fn map<U: Clone + Debug, F: Fn(Self::Value) -> U>(self, f: F) -> Map<Self, F>
    where
        Self: Sized,
    {
        Map { inner: self, f }
    }
}

/// Run `property` against `cases` generated values, shrinking failures.
///
/// Panics (like `assert!`) with a report containing the original failing
/// value, the shrunk value, the error, and a regression `cc` line.
pub fn check<S: Strategy>(
    config: &Config,
    strategy: &S,
    property: impl Fn(&S::Value) -> Result<(), String>,
) {
    let run = |value: &S::Value| -> Result<(), String> {
        match catch_unwind(AssertUnwindSafe(|| property(value))) {
            Ok(r) => r,
            Err(payload) => Err(panic_message(payload)),
        }
    };

    // Replay persisted regression cases first, exactly like proptest.
    if let Some(path) = &config.regressions {
        for seed in read_regression_seeds(path) {
            run_one_case(config, strategy, &run, seed, true);
        }
    }
    for i in 0..config.cases {
        let mut state = config.seed ^ (i as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
        let case_seed = splitmix64(&mut state);
        run_one_case(config, strategy, &run, case_seed, false);
    }
}

fn run_one_case<S: Strategy>(
    config: &Config,
    strategy: &S,
    run: &impl Fn(&S::Value) -> Result<(), String>,
    case_seed: u64,
    from_regression: bool,
) {
    let mut rng = Rng::seed_from_u64(case_seed);
    let original = strategy.generate(&mut rng);
    let Err(first_error) = run(&original) else {
        return;
    };

    // Greedy shrink: take the first failing candidate, repeat.
    let mut current = original.clone();
    let mut error = first_error;
    let mut evals = 0u32;
    'shrinking: while evals < config.max_shrink_iters {
        for candidate in strategy.shrink(&current) {
            evals += 1;
            if let Err(e) = run(&candidate) {
                current = candidate;
                error = e;
                continue 'shrinking;
            }
            if evals >= config.max_shrink_iters {
                break 'shrinking;
            }
        }
        break;
    }

    let cc = cc_line(case_seed);
    if let Some(path) = &config.regressions {
        if !from_regression && std::env::var_os("TESTKIT_PERSIST_REGRESSIONS").is_some() {
            persist_regression(path, &cc, &current);
        }
    }
    panic!(
        "property failed{}\n  case seed: {case_seed:#018x}\n  original:  {original:?}\n  \
         shrunk:    {current:?}  ({evals} shrink evals)\n  error:     {error}\n  \
         regression line (proptest-regressions format): {cc}\n",
        if from_regression {
            " (persisted regression case)"
        } else {
            ""
        },
    )
}

fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        format!("panic: {s}")
    } else if let Some(s) = payload.downcast_ref::<String>() {
        format!("panic: {s}")
    } else {
        "panic: <non-string payload>".to_string()
    }
}

/// Format a case seed as a proptest-style `cc` entry: the first 16 hex
/// digits carry the seed, the rest pad to proptest's 64-digit width.
fn cc_line(case_seed: u64) -> String {
    format!("cc {case_seed:016x}{:0>48}", "")
}

/// Parse `cc <hex>` lines; the leading 16 hex digits are the case seed.
fn read_regression_seeds(path: &Path) -> Vec<u64> {
    let Ok(text) = std::fs::read_to_string(path) else {
        return Vec::new();
    };
    text.lines()
        .filter_map(|line| {
            let rest = line.trim().strip_prefix("cc ")?;
            let hex: String = rest.chars().take(16).collect();
            u64::from_str_radix(&hex, 16).ok()
        })
        .collect()
}

fn persist_regression<V: Debug>(path: &Path, cc: &str, shrunk: &V) {
    if let Some(dir) = path.parent() {
        let _ = std::fs::create_dir_all(dir);
    }
    let mut text = std::fs::read_to_string(path).unwrap_or_default();
    if !text.contains(cc) {
        if !text.is_empty() && !text.ends_with('\n') {
            text.push('\n');
        }
        text.push_str(&format!("{cc} # shrinks to {shrunk:?}\n"));
        let _ = std::fs::write(path, text);
    }
}

/// Early-return `Err` when a condition fails inside a property.
#[macro_export]
macro_rules! prop_assert {
    ($cond:expr $(,)?) => {
        if !$cond {
            return Err(format!("assertion failed: {}", stringify!($cond)));
        }
    };
    ($cond:expr, $($fmt:tt)+) => {
        if !$cond {
            return Err(format!($($fmt)+));
        }
    };
}

/// Early-return `Err` when two values differ inside a property.
#[macro_export]
macro_rules! prop_assert_eq {
    ($left:expr, $right:expr $(,)?) => {{
        let (l, r) = (&$left, &$right);
        if !(*l == *r) {
            return Err(format!("assertion failed: {l:?} != {r:?}"));
        }
    }};
    ($left:expr, $right:expr, $($fmt:tt)+) => {{
        let (l, r) = (&$left, &$right);
        if !(*l == *r) {
            return Err(format!("{}: {l:?} != {r:?}", format!($($fmt)+)));
        }
    }};
}

/// Early-return `Err` when two values are equal inside a property.
#[macro_export]
macro_rules! prop_assert_ne {
    ($left:expr, $right:expr $(,)?) => {{
        let (l, r) = (&$left, &$right);
        if *l == *r {
            return Err(format!("assertion failed: {l:?} == {r:?}"));
        }
    }};
    ($left:expr, $right:expr, $($fmt:tt)+) => {{
        let (l, r) = (&$left, &$right);
        if *l == *r {
            return Err(format!("{}: {l:?} == {r:?}", format!($($fmt)+)));
        }
    }};
}

pub use crate::{prop_assert, prop_assert_eq, prop_assert_ne};

// ---------------------------------------------------------------------------
// Strategies
// ---------------------------------------------------------------------------

/// Integer conversions shrinking needs (bisection toward the range start).
pub trait Int: Copy + PartialOrd + Debug + 'static {
    /// Widen to `i128`.
    fn to_i128(self) -> i128;
    /// Narrow from `i128` (values stay inside the strategy's range).
    fn from_i128(v: i128) -> Self;
}

macro_rules! impl_int {
    ($($t:ty),* $(,)?) => {$(
        impl Int for $t {
            fn to_i128(self) -> i128 { self as i128 }
            fn from_i128(v: i128) -> Self { v as $t }
        }
    )*};
}
impl_int!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

/// Uniform integer in `[range.start, range.end)`, shrinking toward the
/// range start.
pub fn range<T>(r: Range<T>) -> IntRange<T>
where
    T: Int,
    Range<T>: SampleRange<T> + Clone,
{
    IntRange { r }
}

/// See [`range`].
#[derive(Debug, Clone)]
pub struct IntRange<T> {
    r: Range<T>,
}

impl<T> Strategy for IntRange<T>
where
    T: Int,
    Range<T>: SampleRange<T> + Clone,
{
    type Value = T;

    fn generate(&self, rng: &mut Rng) -> T {
        rng.gen_range(self.r.clone())
    }

    fn shrink(&self, value: &T) -> Vec<T> {
        let lo = self.r.start.to_i128();
        let v = value.to_i128();
        if v <= lo {
            return Vec::new();
        }
        let mut out = vec![lo];
        let mid = lo + (v - lo) / 2;
        if mid != lo && mid != v {
            out.push(mid);
        }
        if v - 1 != lo && v - 1 != mid {
            out.push(v - 1);
        }
        out.into_iter().map(T::from_i128).collect()
    }
}

/// Uniform float in `[range.start, range.end)`, shrinking toward the start.
pub fn f64_range(r: Range<f64>) -> F64Range {
    F64Range { r }
}

/// See [`f64_range`].
#[derive(Debug, Clone)]
pub struct F64Range {
    r: Range<f64>,
}

impl Strategy for F64Range {
    type Value = f64;

    fn generate(&self, rng: &mut Rng) -> f64 {
        rng.gen_range(self.r.clone())
    }

    fn shrink(&self, value: &f64) -> Vec<f64> {
        let lo = self.r.start;
        if *value <= lo {
            return Vec::new();
        }
        let mid = lo + (value - lo) / 2.0;
        if mid < *value {
            vec![lo, mid]
        } else {
            vec![lo]
        }
    }
}

/// `true`/`false`, shrinking `true → false`.
pub fn boolean() -> Boolean {
    Boolean
}

/// See [`boolean`].
#[derive(Debug, Clone, Copy)]
pub struct Boolean;

impl Strategy for Boolean {
    type Value = bool;

    fn generate(&self, rng: &mut Rng) -> bool {
        rng.gen_bool(0.5)
    }

    fn shrink(&self, value: &bool) -> Vec<bool> {
        if *value {
            vec![false]
        } else {
            Vec::new()
        }
    }
}

/// Always the same value (proptest's `Just`).
pub fn just<T: Clone + Debug>(value: T) -> Just<T> {
    Just(value)
}

/// See [`just`].
#[derive(Debug, Clone)]
pub struct Just<T>(pub T);

impl<T: Clone + Debug> Strategy for Just<T> {
    type Value = T;

    fn generate(&self, _rng: &mut Rng) -> T {
        self.0.clone()
    }
}

/// A strategy from a closure. No shrinking — prefer structured strategies
/// when shrinking matters.
pub fn from_fn<T: Clone + Debug, F: Fn(&mut Rng) -> T>(f: F) -> FromFn<F> {
    FromFn { f }
}

/// See [`from_fn`].
pub struct FromFn<F> {
    f: F,
}

impl<T: Clone + Debug, F: Fn(&mut Rng) -> T> Strategy for FromFn<F> {
    type Value = T;

    fn generate(&self, rng: &mut Rng) -> T {
        (self.f)(rng)
    }
}

/// See [`Strategy::map`].
pub struct Map<S, F> {
    inner: S,
    f: F,
}

impl<S: Strategy, U: Clone + Debug, F: Fn(S::Value) -> U> Strategy for Map<S, F> {
    type Value = U;

    fn generate(&self, rng: &mut Rng) -> U {
        (self.f)(self.inner.generate(rng))
    }
}

/// Uniform choice among boxed strategies of one value type (proptest's
/// `prop_oneof!`). Shrinking unions every branch's candidates.
pub fn one_of<T: Clone + Debug>(options: Vec<Box<dyn Strategy<Value = T>>>) -> OneOf<T> {
    assert!(!options.is_empty(), "one_of: no options");
    OneOf { options }
}

/// See [`one_of`].
pub struct OneOf<T> {
    options: Vec<Box<dyn Strategy<Value = T>>>,
}

impl<T: Clone + Debug> Strategy for OneOf<T> {
    type Value = T;

    fn generate(&self, rng: &mut Rng) -> T {
        let i = rng.gen_range(0..self.options.len());
        self.options[i].generate(rng)
    }

    fn shrink(&self, value: &T) -> Vec<T> {
        let mut out = Vec::new();
        for opt in &self.options {
            out.extend(opt.shrink(value));
            if out.len() >= 16 {
                break;
            }
        }
        out
    }
}

/// Vector of `element` values with a length drawn from `len`. Shrinks by
/// halving, dropping single elements, then shrinking members in place.
pub fn vec<S: Strategy>(element: S, len: Range<usize>) -> VecStrategy<S> {
    assert!(len.start < len.end, "vec: empty length range");
    VecStrategy { element, len }
}

/// See [`vec`].
pub struct VecStrategy<S> {
    element: S,
    len: Range<usize>,
}

impl<S: Strategy> Strategy for VecStrategy<S> {
    type Value = Vec<S::Value>;

    fn generate(&self, rng: &mut Rng) -> Vec<S::Value> {
        let n = rng.gen_range(self.len.clone());
        (0..n).map(|_| self.element.generate(rng)).collect()
    }

    fn shrink(&self, value: &Vec<S::Value>) -> Vec<Vec<S::Value>> {
        let min = self.len.start;
        let mut out = Vec::new();
        if value.len() > min {
            // Front half first (drastic), then each single-element drop.
            let half = (value.len() / 2).max(min);
            if half < value.len() {
                out.push(value[..half].to_vec());
            }
            for i in 0..value.len() {
                let mut v = value.clone();
                v.remove(i);
                out.push(v);
            }
        }
        for (i, item) in value.iter().enumerate() {
            for cand in self.element.shrink(item) {
                let mut v = value.clone();
                v[i] = cand;
                out.push(v);
                if out.len() >= 64 {
                    return out;
                }
            }
        }
        out
    }
}

/// String of `len` characters from `charset`. Shrinks by dropping
/// characters and replacing characters with the first charset character.
pub fn string(charset: &str, len: Range<usize>) -> StringStrategy {
    let chars: Vec<char> = charset.chars().collect();
    assert!(!chars.is_empty(), "string: empty charset");
    assert!(len.start < len.end, "string: empty length range");
    StringStrategy { chars, len }
}

/// Printable-ASCII string (proptest's `"[ -~]{..}"`).
pub fn ascii_string(len: Range<usize>) -> StringStrategy {
    let charset: String = (b' '..=b'~').map(char::from).collect();
    string(&charset, len)
}

/// Identifier-ish lowercase word.
pub fn word(len: Range<usize>) -> StringStrategy {
    string("abcdefghijklmnopqrstuvwxyz", len)
}

/// See [`string`].
#[derive(Debug, Clone)]
pub struct StringStrategy {
    chars: Vec<char>,
    len: Range<usize>,
}

impl Strategy for StringStrategy {
    type Value = String;

    fn generate(&self, rng: &mut Rng) -> String {
        let n = rng.gen_range(self.len.clone());
        (0..n)
            .map(|_| *rng.choose(&self.chars).expect("non-empty charset"))
            .collect()
    }

    fn shrink(&self, value: &String) -> Vec<String> {
        let cs: Vec<char> = value.chars().collect();
        let min = self.len.start;
        let simplest = self.chars[0];
        let mut out = Vec::new();
        if cs.len() > min {
            let half = (cs.len() / 2).max(min);
            if half < cs.len() {
                out.push(cs[..half].iter().collect());
            }
            for i in 0..cs.len() {
                let mut v = cs.clone();
                v.remove(i);
                out.push(v.into_iter().collect());
            }
        }
        for i in 0..cs.len() {
            if cs[i] != simplest {
                let mut v = cs.clone();
                v[i] = simplest;
                out.push(v.into_iter().collect());
                if out.len() >= 64 {
                    break;
                }
            }
        }
        out
    }
}

/// Unicode-heavy string: ASCII mixed with multi-byte and astral characters
/// (the repo's stand-in for proptest's `any::<String>()` / `"\\PC*"`).
pub fn unicode_string(len: Range<usize>) -> UnicodeString {
    assert!(len.start < len.end, "unicode_string: empty length range");
    UnicodeString { len }
}

/// See [`unicode_string`].
#[derive(Debug, Clone)]
pub struct UnicodeString {
    len: Range<usize>,
}

const UNICODE_SPICE: &[char] = &[
    'é', 'ß', 'λ', 'Ж', '中', '文', '🦀', '𝄞', '‰', '\u{200b}', '"', '\\', '\n', '\t', '\u{7f}',
    '\u{0}',
];

impl Strategy for UnicodeString {
    type Value = String;

    fn generate(&self, rng: &mut Rng) -> String {
        let n = rng.gen_range(self.len.clone());
        (0..n)
            .map(|_| {
                if rng.gen_bool(0.8) {
                    char::from(rng.gen_range(b' '..=b'~'))
                } else {
                    *rng.choose(UNICODE_SPICE).expect("non-empty")
                }
            })
            .collect()
    }

    fn shrink(&self, value: &String) -> Vec<String> {
        let cs: Vec<char> = value.chars().collect();
        let min = self.len.start;
        let mut out = Vec::new();
        if cs.len() > min {
            let half = (cs.len() / 2).max(min);
            if half < cs.len() {
                out.push(cs[..half].iter().collect());
            }
            for i in 0..cs.len() {
                let mut v = cs.clone();
                v.remove(i);
                out.push(v.into_iter().collect());
            }
        }
        for i in 0..cs.len() {
            if cs[i] != 'a' {
                let mut v = cs.clone();
                v[i] = 'a';
                out.push(v.into_iter().collect());
                if out.len() >= 64 {
                    break;
                }
            }
        }
        out
    }
}

impl<A: Strategy, B: Strategy> Strategy for (A, B) {
    type Value = (A::Value, B::Value);

    fn generate(&self, rng: &mut Rng) -> Self::Value {
        (self.0.generate(rng), self.1.generate(rng))
    }

    fn shrink(&self, value: &Self::Value) -> Vec<Self::Value> {
        let mut out: Vec<Self::Value> = self
            .0
            .shrink(&value.0)
            .into_iter()
            .map(|a| (a, value.1.clone()))
            .collect();
        out.extend(
            self.1
                .shrink(&value.1)
                .into_iter()
                .map(|b| (value.0.clone(), b)),
        );
        out
    }
}

impl<A: Strategy, B: Strategy, C: Strategy> Strategy for (A, B, C) {
    type Value = (A::Value, B::Value, C::Value);

    fn generate(&self, rng: &mut Rng) -> Self::Value {
        (
            self.0.generate(rng),
            self.1.generate(rng),
            self.2.generate(rng),
        )
    }

    fn shrink(&self, value: &Self::Value) -> Vec<Self::Value> {
        let mut out: Vec<Self::Value> = self
            .0
            .shrink(&value.0)
            .into_iter()
            .map(|a| (a, value.1.clone(), value.2.clone()))
            .collect();
        out.extend(
            self.1
                .shrink(&value.1)
                .into_iter()
                .map(|b| (value.0.clone(), b, value.2.clone())),
        );
        out.extend(
            self.2
                .shrink(&value.2)
                .into_iter()
                .map(|c| (value.0.clone(), value.1.clone(), c)),
        );
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn failure_message(f: impl FnOnce() + std::panic::UnwindSafe) -> String {
        match catch_unwind(f) {
            Ok(()) => panic!("expected the property to fail"),
            Err(p) => panic_message(p),
        }
    }

    #[test]
    fn passing_property_is_quiet() {
        check(&Config::cases(128), &range(0u64..1000), |v| {
            prop_assert!(*v < 1000);
            Ok(())
        });
    }

    #[test]
    fn int_failures_shrink_to_the_boundary() {
        let msg = failure_message(|| {
            check(&Config::cases(256), &range(0i64..10_000), |v| {
                prop_assert!(*v < 50, "too big: {v}");
                Ok(())
            });
        });
        assert!(
            msg.contains("shrunk:    50"),
            "minimal counterexample is 50: {msg}"
        );
    }

    #[test]
    fn vec_failures_shrink_to_minimal_witness() {
        let msg = failure_message(|| {
            check(&Config::cases(256), &vec(range(0u32..100), 0..20), |v| {
                prop_assert!(!v.contains(&77), "has 77: {v:?}");
                Ok(())
            });
        });
        // The minimal failing vector is exactly [77].
        assert!(msg.contains("shrunk:    [77]"), "{msg}");
    }

    #[test]
    fn string_failures_shrink() {
        let msg = failure_message(|| {
            check(&Config::cases(512), &string("abcz", 0..12), |s| {
                prop_assert!(!s.contains('z'), "has z: {s:?}");
                Ok(())
            });
        });
        assert!(msg.contains("shrunk:    \"z\""), "{msg}");
    }

    #[test]
    fn panics_are_caught_and_shrunk() {
        let msg = failure_message(|| {
            check(&Config::cases(256), &range(0u64..1000), |v| {
                assert!(*v < 10, "plain assert, not prop_assert");
                Ok(())
            });
        });
        assert!(msg.contains("panic:"), "{msg}");
        assert!(msg.contains("shrunk:    10"), "{msg}");
    }

    #[test]
    fn deterministic_given_fixed_seed() {
        let cfg = Config {
            seed: 1234,
            ..Config::cases(64)
        };
        let collect = || {
            let out = std::cell::RefCell::new(Vec::new());
            check(&cfg, &range(0u64..1_000_000), |v| {
                out.borrow_mut().push(*v);
                Ok(())
            });
            out.into_inner()
        };
        assert_eq!(collect(), collect());
    }

    #[test]
    fn tuples_generate_and_shrink_componentwise() {
        let s = (range(0u32..10), boolean());
        let shrinks = s.shrink(&(5, true));
        assert!(shrinks.contains(&(0, true)));
        assert!(shrinks.contains(&(5, false)));
    }

    #[test]
    fn regression_seeds_round_trip_through_cc_format() {
        let dir = std::env::temp_dir().join("testkit-prop-test");
        let _ = std::fs::create_dir_all(&dir);
        let path = dir.join("regress.txt");
        let seed = 0xDEAD_BEEF_0BAD_F00Du64;
        std::fs::write(&path, format!("# comment\n{}\n", cc_line(seed))).unwrap();
        assert_eq!(read_regression_seeds(&path), vec![seed]);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn regression_file_from_seed_repo_parses() {
        // A line as upstream proptest writes it: 64 hex digits plus a trailing comment.
        let line = "cc ba565b2443f3e21cfa813771602b690a8437009845f87a58e812775bda689bd1 # shrinks to seed = 705";
        let dir = std::env::temp_dir().join("testkit-prop-test2");
        let _ = std::fs::create_dir_all(&dir);
        let path = dir.join("lib.txt");
        std::fs::write(&path, line).unwrap();
        let seeds = read_regression_seeds(&path);
        assert_eq!(seeds, vec![0xba56_5b24_43f3_e21c]);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn one_of_draws_from_every_branch() {
        let s = one_of(vec![
            Box::new(just("alpha".to_string())) as Box<dyn Strategy<Value = String>>,
            Box::new(just("beta".to_string())),
        ]);
        let mut rng = Rng::seed_from_u64(1);
        let mut seen = std::collections::HashSet::new();
        for _ in 0..100 {
            seen.insert(s.generate(&mut rng));
        }
        assert_eq!(seen.len(), 2);
    }

    #[test]
    fn map_transforms_generated_values() {
        let s = range(1u32..5).map(|n| "x".repeat(n as usize));
        let mut rng = Rng::seed_from_u64(2);
        for _ in 0..20 {
            let v = s.generate(&mut rng);
            assert!((1..5).contains(&v.len()));
            assert!(v.chars().all(|c| c == 'x'));
        }
    }
}
