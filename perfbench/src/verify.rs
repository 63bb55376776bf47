//! Output verification.
//!
//! Every op is checked, and a failed check counts the op as failed
//! without stopping the run.  Two kinds of check apply:
//!
//! * input-independent invariants, on every seed;
//! * with [`DEFAULT_SEED`], a digest of the op's output compared with
//!   the digest committed in `digests/<workload>.txt`.

use std::collections::BTreeSet;
use std::fmt::Write;

/// The seed whose outputs are pinned by committed digests.
pub const DEFAULT_SEED: u64 = 1;

/// FNV-1a, 64 bits: a fixed, std-only hash, stable across toolchains.
#[derive(Debug, Clone, Copy)]
pub struct Digest(u64);

impl Default for Digest {
    fn default() -> Self {
        Digest(0xCBF2_9CE4_8422_2325)
    }
}

impl Digest {
    pub fn bytes(&mut self, data: &[u8]) {
        for &b in data {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01B3);
        }
    }

    pub fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }

    pub fn u32s(&mut self, values: &[u32]) {
        self.u64(values.len() as u64);
        for &v in values {
            self.bytes(&v.to_le_bytes());
        }
    }

    pub fn finish(&self) -> u64 {
        self.0
    }
}

/// Parses a digest file: one hexadecimal digest per op, in op order;
/// blank lines and `#` comments are skipped.
pub fn parse_digests(text: &str) -> Result<Vec<u64>, String> {
    text.lines()
        .map(str::trim)
        .filter(|l| !l.is_empty() && !l.starts_with('#'))
        .map(|l| u64::from_str_radix(l, 16).map_err(|e| format!("bad digest line '{l}': {e}")))
        .collect()
}

/// Per-op verdicts of one run.
#[derive(Debug, Default)]
pub struct Verifier {
    expected: Vec<u64>,
    recorded: Vec<u64>,
    attempted: usize,
    failed: BTreeSet<usize>,
    first_failures: Vec<String>,
}

impl Verifier {
    /// A verifier comparing op `i`'s digest with `expected[i]` where one
    /// exists; pass an empty list to check invariants only.
    pub fn new(expected: Vec<u64>) -> Self {
        Verifier {
            expected,
            ..Verifier::default()
        }
    }

    /// Records the verdict of the next op from its output digest and
    /// its invariant check.  Returns whether the op is verified.
    pub fn check(&mut self, digest: u64, invariants: Result<(), String>) -> bool {
        let op = self.attempted;
        self.attempted += 1;
        self.recorded.push(digest);
        let verdict = invariants.and_then(|()| match self.expected.get(op) {
            Some(&want) if want != digest => Err(format!(
                "output digest {digest:016x} differs from the committed {want:016x}"
            )),
            _ => Ok(()),
        });
        if let Err(why) = verdict {
            self.fail(op, why);
            return false;
        }
        true
    }

    /// Counts op `op` as failed, also for a failure found after the op's
    /// own check (a measurement check of the traced run).
    pub fn fail(&mut self, op: usize, why: String) {
        self.failed.insert(op);
        if self.first_failures.len() < 5 {
            self.first_failures.push(format!("op {op}: {why}"));
        }
    }

    pub fn attempted(&self) -> usize {
        self.attempted
    }

    pub fn failed(&self) -> usize {
        self.failed.len()
    }

    pub fn success_rate(&self) -> f64 {
        (self.attempted - self.failed()) as f64 / self.attempted.max(1) as f64
    }

    pub fn first_failures(&self) -> &[String] {
        &self.first_failures
    }

    /// The digests of this run, in the format [`parse_digests`] reads.
    pub fn recorded_text(&self, header: &str) -> String {
        let mut text = format!("# {header}\n");
        for d in &self.recorded {
            writeln!(text, "{d:016x}").expect("writing to a String cannot fail");
        }
        text
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn digest_is_fnv1a() {
        let mut d = Digest::default();
        d.bytes(b"a");
        assert_eq!(d.finish(), 0xAF63_DC4C_8601_EC8C);
    }

    #[test]
    fn recorded_digests_round_trip() {
        let mut v = Verifier::new(Vec::new());
        v.check(0xDEAD_BEEF, Ok(()));
        v.check(42, Ok(()));
        let text = v.recorded_text("test");
        assert_eq!(parse_digests(&text).unwrap(), vec![0xDEAD_BEEF, 42]);
        assert!(parse_digests("xyz").is_err());
    }

    #[test]
    fn corrupted_expected_digest_fails_the_op_and_lowers_success_rate() {
        let mut good = Verifier::new(vec![1, 2, 3]);
        for d in [1, 2, 3] {
            assert!(good.check(d, Ok(())));
        }
        assert_eq!(good.success_rate(), 1.0);

        let mut bad = Verifier::new(vec![1, 0xBAD, 3]);
        let verdicts: Vec<bool> = [1, 2, 3].iter().map(|&d| bad.check(d, Ok(()))).collect();
        assert_eq!(verdicts, vec![true, false, true]);
        assert_eq!((bad.attempted(), bad.failed()), (3, 1));
        assert!(bad.success_rate() < 1.0);
        assert!(bad.first_failures()[0].contains("op 1"));
        // A second failure of the same op, such as a traced-run check,
        // does not count it twice.
        bad.fail(1, "leaf spans miss the op's wall time".into());
        assert_eq!(bad.failed(), 1);
    }

    #[test]
    fn broken_invariant_fails_without_digests() {
        let mut v = Verifier::new(Vec::new());
        assert!(!v.check(7, Err("scores rose with theta".into())));
        assert!(v.check(8, Ok(())));
        assert_eq!(v.success_rate(), 0.5);
    }
}
