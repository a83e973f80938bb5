//! A fixed unit of host work that does not depend on the repository's
//! code. Timed next to each sample of the program under test, it says how
//! fast the shared host ran at that moment.

use crate::util::mix;
use std::hint::black_box;
use std::time::Instant;

/// Vertices in each thread's union-find: a 2 MiB parent array, past the
/// per-core caches, as the program's graphs are.
const VERTICES: usize = 1 << 19;
/// Random unions each thread performs per probe.
const UNIONS: u64 = 1 << 20;

/// Probe time, in seconds, of the nominal host that rescaled timings are
/// quoted for: about the fastest probe seen on a quiet 2-core VM.
pub const NOMINAL_S: f64 = 0.018;

/// Rescales `samples` to the nominal host: each sample times
/// [`NOMINAL_S`] over the mean of the probes run just before and just
/// after it. `probes` holds one more entry than `samples`.
pub fn rescale(samples: &[f64], probes: &[f64]) -> Vec<f64> {
    debug_assert_eq!(probes.len(), samples.len() + 1);
    samples
        .iter()
        .zip(probes.windows(2))
        .map(|(s, p)| s * NOMINAL_S / ((p[0] + p[1]) / 2.0))
        .collect()
}

/// Runs the probe's fixed work on `threads` threads at once and returns
/// the wall seconds until the last one finishes.
pub fn run(threads: usize) -> f64 {
    let t = Instant::now();
    std::thread::scope(|s| {
        for k in 0..threads {
            s.spawn(move || black_box(components(k as u64)));
        }
    });
    t.elapsed().as_secs_f64()
}

/// Union-find with path halving over a seeded stream of random edges;
/// returns the number of components.
fn components(seed: u64) -> usize {
    let mut parent: Vec<u32> = (0..VERTICES as u32).collect();
    let mask = VERTICES as u64 - 1;
    for i in 0..UNIONS {
        let h = mix(seed, i);
        let a = find(&mut parent, (h & mask) as u32);
        let b = find(&mut parent, ((h >> 32) & mask) as u32);
        if a != b {
            parent[a.max(b) as usize] = a.min(b);
        }
    }
    (0..parent.len()).filter(|&v| parent[v] == v as u32).count()
}

fn find(parent: &mut [u32], mut x: u32) -> u32 {
    while parent[x as usize] != x {
        let grandparent = parent[parent[x as usize] as usize];
        parent[x as usize] = grandparent;
        x = grandparent;
    }
    x
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn probe_work_is_fixed() {
        // Twice as many random edges as vertices leave one giant component
        // and a few percent of vertices outside it.
        let c = components(1);
        assert_eq!(c, components(1));
        assert!(c > 1 && c < VERTICES / 10, "{c}");
        assert!(run(2) > 0.0);
    }

    #[test]
    fn rescale_divides_by_the_bracketing_probes() {
        let r = rescale(&[1.0, 2.0], &[NOMINAL_S, NOMINAL_S, 3.0 * NOMINAL_S]);
        assert_eq!(r, vec![1.0, 1.0]);
    }
}
