//! Output checks: every answer the workloads get is compared against a
//! reference, and every mismatch is counted, never panicked on.

use std::collections::HashMap;
use std::hash::Hash;

/// Attempted and failed units of work (cells or requests), plus the first
/// few failure messages for the report.
#[derive(Debug, Default, Clone, PartialEq)]
pub struct Tally {
    /// Units attempted.
    pub attempted: u64,
    /// Units that failed, answered non-200, or failed an output check.
    pub failed: u64,
    /// The first failure messages.
    pub errors: Vec<String>,
}

/// How many failure messages a tally keeps.
const KEPT_ERRORS: usize = 8;

impl Tally {
    /// Counts `n` units that succeeded.
    pub fn pass(&mut self, n: u64) {
        self.attempted += n;
    }

    /// Counts `n` units that failed, with a reason.
    pub fn fail(&mut self, n: u64, why: impl Into<String>) {
        self.attempted += n;
        self.failed += n;
        if self.errors.len() < KEPT_ERRORS {
            self.errors.push(why.into());
        }
    }

    /// Counts a failed check of already-attempted work (a reference or
    /// ledger check outside the timed window).
    pub fn fail_check(&mut self, why: impl Into<String>) {
        self.failed += 1;
        if self.errors.len() < KEPT_ERRORS {
            self.errors.push(why.into());
        }
    }

    /// Adds another tally.
    pub fn merge(&mut self, other: Tally) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        for e in other.errors {
            if self.errors.len() < KEPT_ERRORS {
                self.errors.push(e);
            }
        }
    }

    /// `failed / attempted`.
    pub fn failed_ratio(&self) -> f64 {
        self.failed as f64 / self.attempted.max(1) as f64
    }
}

/// Reference payloads by key; answers must match them byte for byte.
#[derive(Debug)]
pub struct References<K> {
    expected: HashMap<K, String>,
}

impl<K> Default for References<K> {
    fn default() -> Self {
        References {
            expected: HashMap::new(),
        }
    }
}

impl<K: Hash + Eq + std::fmt::Debug> References<K> {
    /// Records the reference for `key`.
    pub fn insert(&mut self, key: K, payload: String) {
        self.expected.insert(key, payload);
    }

    /// The reference for `key`.
    pub fn get(&self, key: &K) -> Option<&str> {
        self.expected.get(key).map(String::as_str)
    }

    /// Checks `payload` against the reference for `key`, counting its
    /// `units` as passed or failed in `tally`. Returns whether it matched.
    pub fn check(&self, key: &K, payload: &str, units: u64, tally: &mut Tally) -> bool {
        match self.expected.get(key) {
            Some(expected) if expected == payload => {
                tally.pass(units);
                true
            }
            Some(_) => {
                tally.fail(
                    units,
                    format!("{key:?}: payload differs from its reference"),
                );
                false
            }
            None => {
                tally.fail(units, format!("{key:?}: no reference payload"));
                false
            }
        }
    }
}

/// Relative deviation `|value − reference| / reference`.
pub fn rel_err(value: f64, reference: f64) -> f64 {
    (value - reference).abs() / reference.abs()
}
