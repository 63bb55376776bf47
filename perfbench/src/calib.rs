//! Drift calibration against a frozen reference kernel.
//!
//! The hosts this benchmark runs on change speed while it runs, with no
//! steal time reported.  Every timed interval is therefore bracketed by
//! runs of [`reference_kernel`], a fixed piece of std-only work, and
//! reported as `raw × NOMINAL_REF_MS / mean(adjacent reference samples)`:
//! milliseconds on a host whose reference run always takes
//! [`NOMINAL_REF_MS`].

use std::collections::HashMap;
use std::hint::black_box;
use std::time::Instant;

/// Reference-kernel time that calibrated numbers are scaled to.  Fixed
/// once, near the kernel's median on an idle 2-vCPU x86-64 VM; changing
/// it rescales every calibrated number.
pub const NOMINAL_REF_MS: f64 = 6.0;

const SORT_LEN: usize = 1 << 17;
const HASH_KEYS: usize = 1 << 14;
const HASH_PROBES: usize = 1 << 15;
const CSR_VERTICES: usize = 1 << 10;
const CSR_DEGREE: usize = 8;

/// One run of the reference work: a sort, hash-map inserts and probes,
/// and sorted-list intersections over a CSR graph — the mix of the
/// library's support builds and peels — over buffers it allocates and
/// frees itself, about 1 MB in all.  A kernel that looped over a
/// preallocated array did not follow the host's slow episodes, and
/// neither did streaming or compute-bound parts, so the kernel has none.
pub fn reference_kernel() -> u64 {
    let mut state = 0x2545_F491_4F6C_DD1Du64;
    let mut next = move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        state
    };

    let mut values: Vec<u32> = (0..SORT_LEN).map(|_| next() as u32).collect();
    values.sort_unstable();
    let mut checksum = u64::from(values[SORT_LEN / 2]);
    drop(values);

    let key_space = 4 * HASH_KEYS as u32;
    let mut map: HashMap<u32, u32> = HashMap::with_capacity(HASH_KEYS);
    for i in 0..HASH_KEYS as u32 {
        map.insert(next() as u32 % key_space, i);
    }
    for _ in 0..HASH_PROBES {
        if let Some(&v) = map.get(&(next() as u32 % key_space)) {
            checksum = checksum.wrapping_add(u64::from(v));
        }
    }
    drop(map);

    let mut offsets = Vec::with_capacity(CSR_VERTICES + 1);
    let mut targets: Vec<u32> = Vec::with_capacity(CSR_VERTICES * CSR_DEGREE);
    offsets.push(0usize);
    for _ in 0..CSR_VERTICES {
        let start = targets.len();
        targets.extend((0..CSR_DEGREE).map(|_| (next() % CSR_VERTICES as u64) as u32));
        targets[start..].sort_unstable();
        offsets.push(targets.len());
    }
    let list = |v: u32| &targets[offsets[v as usize]..offsets[v as usize + 1]];
    for u in 0..CSR_VERTICES as u32 {
        for &v in list(u) {
            let (a, b) = (list(u), list(v));
            let (mut i, mut j) = (0, 0);
            while i < a.len() && j < b.len() {
                match a[i].cmp(&b[j]) {
                    std::cmp::Ordering::Less => i += 1,
                    std::cmp::Ordering::Greater => j += 1,
                    std::cmp::Ordering::Equal => {
                        checksum += 1;
                        i += 1;
                        j += 1;
                    }
                }
            }
        }
    }
    checksum
}

/// `raw` scaled to a host whose reference run takes `nominal_ms`, given
/// the reference samples taken just before and just after it.
pub fn calibrate(raw_ms: f64, ref_before_ms: f64, ref_after_ms: f64, nominal_ms: f64) -> f64 {
    raw_ms * nominal_ms / ((ref_before_ms + ref_after_ms) / 2.0)
}

/// Operations per second of calibrated op time.  Reference runs are
/// not part of any op, so they never enter the denominator.
pub fn ops_per_second(calibrated_op_ms: &[f64]) -> f64 {
    let total_ms: f64 = calibrated_op_ms.iter().sum();
    calibrated_op_ms.len() as f64 * 1000.0 / total_ms
}

/// One timed interval, raw and calibrated.
#[derive(Debug, Clone, Copy)]
pub struct Timed {
    pub raw_ms: f64,
    pub cal_ms: f64,
}

impl Timed {
    /// Calibration factor of this interval, for spans recorded inside it.
    pub fn factor(&self) -> f64 {
        self.cal_ms / self.raw_ms
    }
}

/// Runs timed intervals with a reference sample between every two, so
/// each interval has one sample just before and one just after it.
#[derive(Debug, Default)]
pub struct Calibrator {
    last_ref_ms: Option<f64>,
    samples_ms: Vec<f64>,
}

impl Calibrator {
    fn sample(&mut self) -> f64 {
        let start = Instant::now();
        black_box(reference_kernel());
        let ms = start.elapsed().as_secs_f64() * 1e3;
        self.samples_ms.push(ms);
        ms
    }

    /// Times `work` between two reference samples.
    pub fn measure<T>(&mut self, work: impl FnOnce() -> T) -> (T, Timed) {
        let before = match self.last_ref_ms {
            Some(ms) => ms,
            None => self.sample(),
        };
        let start = Instant::now();
        let out = black_box(work());
        let raw_ms = start.elapsed().as_secs_f64() * 1e3;
        let after = self.sample();
        self.last_ref_ms = Some(after);
        let cal_ms = calibrate(raw_ms, before, after, NOMINAL_REF_MS);
        (out, Timed { raw_ms, cal_ms })
    }

    /// Every reference sample taken, in milliseconds.
    pub fn samples_ms(&self) -> &[f64] {
        &self.samples_ms
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn calibration_scales_by_the_mean_of_the_adjacent_samples() {
        // A host running at half speed doubles both the op and its
        // references: the calibrated value is unchanged.
        assert_eq!(calibrate(10.0, 4.0, 4.0, 4.0), 10.0);
        assert_eq!(calibrate(20.0, 8.0, 8.0, 4.0), 10.0);
        // Before and after count equally.
        assert_eq!(calibrate(15.0, 4.0, 8.0, 4.0), 10.0);
        assert_eq!(calibrate(15.0, 8.0, 4.0, 4.0), 10.0);
        // The nominal reference sets the scale.
        assert_eq!(calibrate(10.0, 4.0, 4.0, 2.0), 5.0);
    }

    #[test]
    fn ops_per_second_excludes_reference_time() {
        // Four ops of 250 ms each: 4 ops per second of op time, however
        // long the reference runs between them took.
        assert_eq!(ops_per_second(&[250.0; 4]), 4.0);
        let mut cal = Calibrator::default();
        let timed: Vec<f64> = (0..3)
            .map(|_| {
                cal.measure(|| std::thread::sleep(std::time::Duration::from_millis(5)))
                    .1
            })
            .map(|t| t.cal_ms)
            .collect();
        let wall_with_refs: f64 = timed.iter().sum::<f64>() + cal.samples_ms().iter().sum::<f64>();
        assert_eq!(cal.samples_ms().len(), 4);
        assert!(ops_per_second(&timed) > 3.0 * 1000.0 / wall_with_refs);
    }

    #[test]
    fn consecutive_intervals_share_the_sample_between_them() {
        let mut cal = Calibrator::default();
        let (value, timed) = cal.measure(|| 41 + 1);
        assert_eq!(value, 42);
        assert!(timed.raw_ms >= 0.0 && timed.cal_ms >= 0.0);
        cal.measure(|| ());
        assert_eq!(cal.samples_ms().len(), 3);
    }

    #[test]
    fn reference_kernel_is_deterministic() {
        assert_eq!(reference_kernel(), reference_kernel());
    }
}
