//! Config, error type and RNG behind the [`proptest!`](crate::proptest) macro.

use std::fmt;

/// Subset of proptest's `ProptestConfig`: only the case count matters here.
#[derive(Debug, Clone, Copy)]
pub struct ProptestConfig {
    /// Number of generated cases per property.
    pub cases: u32,
}

impl ProptestConfig {
    /// Run `cases` generated inputs per property.
    pub fn with_cases(cases: u32) -> Self {
        Self { cases }
    }

    /// The case count a property runs: `PROPTEST_CASES=<u32>`, when set,
    /// replaces every property's compiled `cases` (CI raises it for the
    /// oracles, Miri lowers it); otherwise `cases`.
    pub fn effective_cases(&self) -> u32 {
        cases_override(std::env::var("PROPTEST_CASES").ok().as_deref()).unwrap_or(self.cases)
    }
}

/// `PROPTEST_CASES`'s value as a case count, panicking with the offending
/// value when it is not a `u32`.
fn cases_override(var: Option<&str>) -> Option<u32> {
    var.map(|s| {
        s.parse()
            .unwrap_or_else(|_| panic!("PROPTEST_CASES must be a u32, got {s:?}"))
    })
}

impl Default for ProptestConfig {
    fn default() -> Self {
        Self { cases: 256 }
    }
}

/// A failed property case (message only; this shim does not shrink).
#[derive(Debug, Clone)]
pub struct TestCaseError {
    message: String,
}

impl TestCaseError {
    /// Build a failure from a message.
    pub fn fail(message: String) -> Self {
        Self { message }
    }
}

impl fmt::Display for TestCaseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.message)
    }
}

impl std::error::Error for TestCaseError {}

/// Deterministic generator driving value generation.
///
/// Seeded from a stable FNV-1a hash of the test's full path so every test
/// draws an independent, reproducible stream. `PROPTEST_SEED=<u64>` overrides
/// the hash for replaying a run with different data.
#[derive(Debug, Clone)]
pub struct TestRng {
    state: u64,
    seed: u64,
}

impl TestRng {
    /// RNG for the named test (stable across runs and machines).
    pub fn for_test(full_name: &str) -> Self {
        let seed = match std::env::var("PROPTEST_SEED") {
            Ok(s) => s
                .parse::<u64>()
                .unwrap_or_else(|_| panic!("PROPTEST_SEED must be a u64, got {s:?}")),
            Err(_) => {
                // FNV-1a over the test path.
                let mut h: u64 = 0xcbf2_9ce4_8422_2325;
                for b in full_name.bytes() {
                    h ^= b as u64;
                    h = h.wrapping_mul(0x0000_0100_0000_01b3);
                }
                h
            }
        };
        Self {
            state: seed.max(1),
            seed,
        }
    }

    /// The seed this stream started from (reported on failure).
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Next raw 64-bit value (SplitMix64).
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform `usize` in `[lo, hi]` (inclusive; unbiased rejection).
    pub fn usize_inclusive(&mut self, lo: usize, hi: usize) -> usize {
        assert!(lo <= hi, "empty range [{lo}, {hi}]");
        let span = (hi - lo) as u64 + 1;
        if span == 0 {
            // hi - lo == u64::MAX: any value works.
            return self.next_u64() as usize;
        }
        let zone = u64::MAX - (u64::MAX % span + 1) % span;
        loop {
            let v = self.next_u64();
            if v <= zone {
                return lo + (v % span) as usize;
            }
        }
    }

    /// Uniform `u64` in `[lo, hi)`.
    pub fn u64_range(&mut self, lo: u64, hi: u64) -> u64 {
        assert!(lo < hi, "empty range [{lo}, {hi})");
        let span = hi - lo;
        let zone = u64::MAX - (u64::MAX % span + 1) % span;
        loop {
            let v = self.next_u64();
            if v <= zone {
                return lo + v % span;
            }
        }
    }

    /// Uniform `f64` in `[0, 1)`.
    pub fn f64_unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cell::Cell;

    #[test]
    fn cases_override_parses_a_u32_or_stays_out_of_the_way() {
        assert_eq!(cases_override(None), None);
        assert_eq!(cases_override(Some("32")), Some(32));
        assert_eq!(cases_override(Some("0")), Some(0));
    }

    #[test]
    #[should_panic(expected = "PROPTEST_CASES must be a u32, got \"lots\"")]
    fn cases_override_rejects_a_non_number() {
        cases_override(Some("lots"));
    }

    thread_local! {
        static RUNS: Cell<u32> = const { Cell::new(0) };
    }

    crate::proptest! {
        #![proptest_config(ProptestConfig::with_cases(5))]
        fn counted(_x in 0u32..3) {
            RUNS.with(|runs| runs.set(runs.get() + 1));
        }
    }

    /// The runner loops over the effective count, not the compiled one
    /// (5 here, or whatever `PROPTEST_CASES` says).
    #[test]
    fn the_runner_runs_the_effective_case_count() {
        counted();
        let want = ProptestConfig::with_cases(5).effective_cases();
        assert_eq!(RUNS.with(Cell::get), want);
    }
}
