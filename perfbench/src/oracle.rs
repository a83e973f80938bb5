//! Linearizability oracle for `CONN` answers under concurrent `ADD`s.
//!
//! Times are nanoseconds on the generator's one monotonic clock, taken
//! conservatively: an `ADD`'s send time before its bytes left, its ack
//! time after the reply arrived; a `CONN`'s send time before its bytes
//! left, its reply time after the reply arrived. Then:
//!
//! * `CONN u v -> false` is wrong if the `ADD`s acknowledged before the
//!   `CONN` was sent already connect `u` and `v`;
//! * `CONN u v -> true` is wrong unless the `ADD`s sent before its reply
//!   arrived connect `u` and `v` (the server applies an edge before the
//!   fsync that acknowledges it, so unacknowledged edges may count).

/// One `ADD u v` as the generator saw it.
#[derive(Clone, Copy, Debug)]
pub struct AddEvent {
    pub u: u32,
    pub v: u32,
    pub send: u64,
    /// When the `OK` arrived; `None` if the `ADD` failed.
    pub ack: Option<u64>,
}

/// One answered `CONN u v`.
#[derive(Clone, Copy, Debug)]
pub struct ConnEvent {
    pub u: u32,
    pub v: u32,
    pub send: u64,
    pub reply: u64,
    pub answer: bool,
}

/// Union-find over `n` vertices (path halving, union by index).
pub struct Dsu(Vec<u32>);

impl Dsu {
    pub fn new(n: usize) -> Dsu {
        Dsu((0..n as u32).collect())
    }

    pub fn find(&mut self, mut x: u32) -> u32 {
        while self.0[x as usize] != x {
            let gp = self.0[self.0[x as usize] as usize];
            self.0[x as usize] = gp;
            x = gp;
        }
        x
    }

    /// Links the sets of `a` and `b`; true if they were distinct.
    pub fn union(&mut self, a: u32, b: u32) -> bool {
        let (ra, rb) = (self.find(a), self.find(b));
        if ra == rb {
            return false;
        }
        let (lo, hi) = (ra.min(rb), ra.max(rb));
        self.0[hi as usize] = lo;
        true
    }

    /// Number of disjoint sets.
    pub fn components(&mut self) -> usize {
        (0..self.0.len() as u32)
            .filter(|&v| self.find(v) == v)
            .count()
    }
}

/// Returns one message per `CONN` answer the history cannot justify.
pub fn check(
    n: usize,
    preload: &[(u32, u32)],
    adds: &[AddEvent],
    conns: &[ConnEvent],
) -> Vec<String> {
    let mut bad = Vec::new();
    let base = || {
        let mut d = Dsu::new(n);
        for &(u, v) in preload {
            d.union(u, v);
        }
        d
    };

    // Lower bound: acknowledged before the CONN was sent.
    let mut acked: Vec<(u64, u32, u32)> = adds
        .iter()
        .filter_map(|a| a.ack.map(|t| (t, a.u, a.v)))
        .collect();
    acked.sort_unstable();
    let mut falses: Vec<&ConnEvent> = conns.iter().filter(|c| !c.answer).collect();
    falses.sort_by_key(|c| c.send);
    let (mut d, mut i) = (base(), 0);
    for c in falses {
        while i < acked.len() && acked[i].0 < c.send {
            d.union(acked[i].1, acked[i].2);
            i += 1;
        }
        if d.find(c.u) == d.find(c.v) {
            bad.push(format!(
                "CONN {} {} -> false, but acknowledged ADDs connect them",
                c.u, c.v
            ));
        }
    }

    // Upper bound: sent before the CONN's reply arrived.
    let mut sent: Vec<(u64, u32, u32)> = adds.iter().map(|a| (a.send, a.u, a.v)).collect();
    sent.sort_unstable();
    let mut trues: Vec<&ConnEvent> = conns.iter().filter(|c| c.answer).collect();
    trues.sort_by_key(|c| c.reply);
    let (mut d, mut i) = (base(), 0);
    for c in trues {
        while i < sent.len() && sent[i].0 < c.reply {
            d.union(sent[i].1, sent[i].2);
            i += 1;
        }
        if d.find(c.u) != d.find(c.v) {
            bad.push(format!(
                "CONN {} {} -> true, but no ADD sent before the reply connects them",
                c.u, c.v
            ));
        }
    }
    bad
}

#[cfg(test)]
mod tests {
    use super::*;

    fn add(u: u32, v: u32, send: u64, ack: u64) -> AddEvent {
        AddEvent {
            u,
            v,
            send,
            ack: Some(ack),
        }
    }

    fn conn(u: u32, v: u32, send: u64, reply: u64, answer: bool) -> ConnEvent {
        ConnEvent {
            u,
            v,
            send,
            reply,
            answer,
        }
    }

    #[test]
    fn consistent_history_passes() {
        let adds = [add(1, 2, 10, 20), add(2, 3, 30, 40)];
        let conns = [
            conn(1, 3, 5, 8, false),   // before any ADD
            conn(1, 2, 25, 28, true),  // after the first ack
            conn(1, 3, 32, 35, true),  // applied before its ack: allowed
            conn(1, 3, 33, 36, false), // not yet acknowledged: allowed
            conn(0, 4, 50, 55, true),  // preloaded
        ];
        assert!(check(5, &[(0, 4)], &adds, &conns).is_empty());
    }

    #[test]
    fn injected_wrong_false_is_caught() {
        let adds = [add(1, 2, 10, 20)];
        let bad = check(4, &[], &adds, &[conn(1, 2, 25, 30, false)]);
        assert_eq!(bad.len(), 1, "{bad:?}");
    }

    #[test]
    fn injected_unjustified_true_is_caught() {
        // The ADD was sent only after the reply arrived.
        let adds = [add(1, 2, 40, 50)];
        let bad = check(
            4,
            &[],
            &adds,
            &[conn(1, 2, 25, 30, true), conn(0, 3, 25, 30, true)],
        );
        assert_eq!(bad.len(), 2, "{bad:?}");
    }
}
