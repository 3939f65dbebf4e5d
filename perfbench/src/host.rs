//! The host's speed during a run, from a fixed reference kernel timed
//! between the workload's timed items.
//!
//! The benchmark machine is a share of a busy host: over minutes the same
//! code runs up to 1.5 times slower or faster, and no statistic over one
//! run's own samples removes that. The reference kernel is the benchmark's
//! own code and calls no library, so a change to the library leaves it
//! alone. It is timed a few milliseconds at a time through the run, under
//! the load the workload sees, on as many threads as the workload keeps
//! busy. A run's times are reported divided by the kernel's slowdown
//! against its nominal time, [`REF_NOMINAL_S`]: figures at the host speed
//! that nominal time stands for.

use std::hint::black_box;
use std::time::Instant;

use crate::report::median;

/// Seconds of the kernel at the nominal host speed: about its median on
/// an unloaded 2-vCPU Xeon VM (2.0 GHz), the machine the baseline was
/// measured on.
pub const REF_NOMINAL_S: f64 = 0.003;

/// Least time between two kernel samples: the kernel takes 5–8 % of a run.
const EVERY_S: f64 = 0.05;

/// How far into the memory hierarchy the kernel reaches. Load on the host
/// slows code by how much it leans on the caches and memory it shares with
/// other tenants, so each workload's kernel reaches about as far as the
/// workload's own hot data.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Reach {
    /// Independent accesses to a 32 KiB table: first-level cache.
    L1,
    /// Independent accesses to a 256 KiB table: second-level cache.
    L2,
    /// A chain of dependent accesses to a 1 MiB table: every step waits
    /// for the last-level cache.
    Chase,
}

impl Reach {
    fn table_entries(self) -> usize {
        match self {
            Reach::L1 => 1 << 12,
            Reach::L2 => 1 << 15,
            Reach::Chase => 1 << 17,
        }
    }

    /// Steps of the walk per thread, about 3 ms at the nominal speed.
    fn steps(self) -> u64 {
        match self {
            Reach::L1 | Reach::L2 => 800_000,
            Reach::Chase => 75_000,
        }
    }
}

/// One thread's share of the kernel: a pseudo-random walk over its table
/// with a data-dependent branch on every step. The tables live as long as the clock,
/// so a sample times the walk and not the allocation of fresh pages.
fn walk(table: &mut [u64], reach: Reach, seed: u64) -> u64 {
    let mask = table.len() - 1;
    let chase = reach == Reach::Chase;
    let mut x = seed | 1;
    let mut acc = 0u64;
    for _ in 0..reach.steps() {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        let i = if chase { x ^ acc } else { x } as usize & mask;
        let v = table[i];
        if v & 1 == 0 {
            acc = acc.wrapping_add(v);
        } else {
            acc ^= v.rotate_left(7);
        }
        table[i] = v.wrapping_add(x >> 11);
    }
    acc
}

/// Kernel samples of one run.
pub struct HostClock {
    /// One table per thread the kernel runs on.
    tables: Vec<Vec<u64>>,
    reach: Reach,
    last: Instant,
    samples: Vec<f64>,
}

impl HostClock {
    /// A clock whose kernel runs on `threads` threads, the number the
    /// workload keeps busy, and reaches as far as `reach`.
    pub fn new(threads: usize, reach: Reach) -> Self {
        let mut clock = HostClock {
            tables: vec![(0..reach.table_entries() as u64).collect(); threads.max(1)],
            reach,
            last: Instant::now(),
            samples: Vec::new(),
        };
        clock.sample();
        clock
    }

    /// The kernel on every table at once, the first on the calling thread;
    /// its wall time is the sample.
    fn sample(&mut self) {
        let t = Instant::now();
        let reach = self.reach;
        let (first, rest) = self.tables.split_first_mut().expect("one table");
        std::thread::scope(|s| {
            let walks: Vec<_> = rest
                .iter_mut()
                .enumerate()
                .map(|(k, table)| {
                    s.spawn(move || walk(table, reach, 0x9E37_79B9_7F4A_7C15 ^ k as u64))
                })
                .collect();
            black_box(walk(first, reach, 0x2545_F491_4F6C_DD1D));
            for w in walks {
                black_box(w.join().expect("reference kernel thread"));
            }
        });
        self.samples.push(t.elapsed().as_secs_f64());
        self.last = Instant::now();
    }

    /// Times the kernel when a sample is due. Call it between timed items,
    /// never inside one.
    pub fn tick(&mut self) {
        if self.last.elapsed().as_secs_f64() >= EVERY_S {
            self.sample();
        }
    }

    /// The host's slowdown over the run: the kernel's median time as a
    /// multiple of its nominal time.
    pub fn slowdown(&self) -> f64 {
        median(&self.samples) / REF_NOMINAL_S
    }

    pub fn samples(&self) -> usize {
        self.samples.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_reach_measures_a_finite_slowdown() {
        for reach in [Reach::L1, Reach::L2, Reach::Chase] {
            let mut clock = HostClock::new(2, reach);
            clock.last -= std::time::Duration::from_secs(1);
            clock.tick();
            assert_eq!(clock.samples(), 2);
            let s = clock.slowdown();
            assert!(s.is_finite() && s > 0.0, "{reach:?}: {s}");
        }
    }

    #[test]
    fn walks_are_deterministic() {
        let fresh = || (0..Reach::Chase.table_entries() as u64).collect::<Vec<u64>>();
        let (mut a, mut b) = (fresh(), fresh());
        assert_eq!(walk(&mut a, Reach::Chase, 7), walk(&mut b, Reach::Chase, 7));
        assert_eq!(a, b);
    }
}
