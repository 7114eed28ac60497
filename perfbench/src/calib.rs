//! Host-speed calibration: a fixed reference computation, timed alongside
//! the workload, that says how fast the host runs at the moment.
//!
//! The benchmark runs on shared hosts whose speed drifts as other tenants
//! come and go: on a 2-vCPU guest the same code ran up to 1.5× slower for
//! seconds to minutes at a time, in CPU time as well as wall time. The
//! kernel below does the same work on every run of every commit, because it
//! is part of the benchmark and calls nothing of the program, so its time
//! moves only with the host. Its shape follows the engine's hot path:
//! and-inverter gates hash-consed while bit-blasting adders into freshly
//! allocated tables, then a sweep that evaluates the circuit.
//!
//! The kernel is sampled while no request is in flight. A timed run scales
//! each timing metric by `REF_MS / kernel time` (the median of the samples
//! taken during or at the ends of the same sub-run), so it reads as on a
//! host where the kernel takes `REF_MS`. A change to the program moves
//! the scaled figures as it moves the raw ones; the raw figures are kept in
//! the result file.

use crate::sys;
use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};
use std::time::{Duration, Instant};

/// Kernel CPU time, in ms, at the host speed that scaled metrics are quoted
/// at. It sets only the scale; it is close to a typical reading on the host
/// in META.json, so scaled figures stay near raw ones.
pub const REF_MS: f64 = 18.0;

/// Circuits built per kernel call, adders per circuit, bits per word.
const ROUNDS: u64 = 40;
const ADDERS: usize = 60;
const WIDTH: usize = 32;

/// Kernel samples taken over a run, each with the instant it ended.
pub struct Sampler {
    /// The first call's result, which every later call must repeat.
    check: u64,
    every: Duration,
    last: Option<Instant>,
    samples: Vec<(Instant, f64)>,
}

impl Sampler {
    /// A sampler whose `tick` takes a sample at most once per `every`.
    pub fn new(every: Duration) -> Sampler {
        // An untimed first call, which also warms the allocator.
        let (check, _) = run();
        Sampler {
            check,
            every,
            last: None,
            samples: Vec::new(),
        }
    }

    /// Take a sample if `every` has passed since the last one. Returns the
    /// wall time it took, so that callers can leave it out of their own.
    pub fn tick(&mut self) -> Duration {
        if self.last.is_some_and(|l| l.elapsed() < self.every) {
            return Duration::ZERO;
        }
        self.take()
    }

    /// Take `n` samples in a row.
    pub fn sample(&mut self, n: usize) {
        for _ in 0..n {
            self.take();
        }
    }

    fn take(&mut self) -> Duration {
        let t = Instant::now();
        let (check, ms) = run();
        assert_eq!(check, self.check, "calibration kernel is not deterministic");
        let end = Instant::now();
        self.last = Some(end);
        self.samples.push((end, ms));
        end - t
    }

    /// `REF_MS / median kernel time` over the samples that ended in
    /// `[from, to]`, or over all samples when that range holds none.
    pub fn speed(&self, from: Instant, to: Instant) -> f64 {
        let inside: Vec<f64> = self
            .samples
            .iter()
            .filter(|(t, _)| (from..=to).contains(t))
            .map(|&(_, ms)| ms)
            .collect();
        let ms = if inside.is_empty() {
            sys::median(self.samples.iter().map(|&(_, ms)| ms).collect())
        } else {
            sys::median(inside)
        };
        if ms > 0.0 {
            REF_MS / ms
        } else {
            1.0
        }
    }

    /// CPU ms the kernel used over the samples that ended in `[from, to]`.
    pub fn cpu_ms(&self, from: Instant, to: Instant) -> f64 {
        self.samples
            .iter()
            .filter(|(t, _)| (from..=to).contains(t))
            .map(|&(_, ms)| ms)
            .sum()
    }
}

/// FxHash: a fixed hash, so every call of the kernel does the same work.
#[derive(Default)]
struct Fx(u64);

impl Hasher for Fx {
    fn finish(&self) -> u64 {
        self.0
    }
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.write_u64(u64::from(b));
        }
    }
    fn write_u32(&mut self, n: u32) {
        self.write_u64(u64::from(n));
    }
    fn write_u64(&mut self, n: u64) {
        self.0 = (self.0.rotate_left(5) ^ n).wrapping_mul(0x517c_c1b7_2722_0a95);
    }
}

/// One circuit under construction: and-gates by node, where node 0 is
/// constant false and inputs are `(0, 0)`, and the hash-consing table. A
/// literal is `node << 1 | negated`.
#[derive(Default)]
struct Circuit {
    gates: Vec<(u32, u32)>,
    cache: HashMap<(u32, u32), u32, BuildHasherDefault<Fx>>,
}

/// Run the kernel once; returns its result and the CPU ms of the calling
/// thread it took, which leaves out time spent waiting for a CPU.
fn run() -> (u64, f64) {
    let t = sys::thread_cpu_ms();
    let check = (0..ROUNDS).fold(0u64, |acc, round| acc.wrapping_add(blast(round)));
    (check, sys::thread_cpu_ms() - t)
}

impl Circuit {
    fn input(&mut self) -> u32 {
        self.gates.push((0, 0));
        ((self.gates.len() - 1) as u32) << 1
    }

    fn and(&mut self, a: u32, b: u32) -> u32 {
        let (a, b) = if a <= b { (a, b) } else { (b, a) };
        if a == 0 {
            return 0;
        }
        if a == b {
            return a;
        }
        let gates = &mut self.gates;
        *self.cache.entry((a, b)).or_insert_with(|| {
            gates.push((a, b));
            ((gates.len() - 1) as u32) << 1
        })
    }

    fn xor(&mut self, a: u32, b: u32) -> u32 {
        let both = self.and(a, b);
        let neither = self.and(a ^ 1, b ^ 1);
        self.and(both ^ 1, neither ^ 1)
    }
}

/// Bit-blast a chain of ripple-carry adders over eight input words into a
/// new circuit, then evaluate every gate under an assignment of the inputs.
/// Every call allocates afresh, as the engine does per request.
fn blast(seed: u64) -> u64 {
    let mut c = Circuit::default();
    c.gates.push((0, 0));
    let mut words: Vec<Vec<u32>> = (0..8)
        .map(|_| (0..WIDTH).map(|_| c.input()).collect())
        .collect();
    let inputs = c.gates.len();
    let mut rng = 0x9e37_79b9_7f4a_7c15u64 ^ seed;
    let mut pick = |n: usize| {
        rng ^= rng << 13;
        rng ^= rng >> 7;
        rng ^= rng << 17;
        (rng % n as u64) as usize
    };
    for _ in 0..ADDERS {
        let x = words[pick(words.len())].clone();
        let y = words[pick(words.len())].clone();
        let mut carry = 0;
        let mut sum = Vec::with_capacity(WIDTH);
        for (&a, &b) in x.iter().zip(&y) {
            let p = c.xor(a, b);
            sum.push(c.xor(p, carry));
            let g1 = c.and(a, b);
            let g2 = c.and(p, carry);
            carry = c.and(g1 ^ 1, g2 ^ 1) ^ 1;
        }
        words.push(sum);
    }
    let mut val = vec![false; c.gates.len()];
    for (i, v) in val.iter_mut().enumerate().take(inputs).skip(1) {
        *v = (i as u64 ^ seed).wrapping_mul(0x2545_f491_4f6c_dd1d) >> 63 == 1;
    }
    for i in inputs..c.gates.len() {
        let (a, b) = c.gates[i];
        let lit = |l: u32| val[(l >> 1) as usize] ^ (l & 1 == 1);
        val[i] = lit(a) && lit(b);
    }
    let ones = val.iter().filter(|&&v| v).count() as u64;
    (c.gates.len() as u64) << 32 | ones
}
