//! Scheduler modes for host-parallel execution.
//!
//! A host-parallel launch hands out *units* — one block's worth of one
//! simulated SM's work — in the order the serial launch runs them (block
//! `0`, `1`, `2`, …). [`SchedMode`] only decides which worker may take a
//! unit; see `DESIGN.md` § "Block scheduling".

/// How a host-parallel launch distributes units over workers.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum SchedMode {
    /// Fixed SM-to-worker assignment: worker `w` runs, in serial order,
    /// only the units of SMs `w, w + W, w + 2W, …`, and idles when its
    /// share finishes early. Kept as an A/B escape hatch.
    Static,
    /// Any free worker takes the next unit in serial order (the default),
    /// so degree-skewed launches load-balance across workers.
    #[default]
    Steal,
}

impl SchedMode {
    /// Parses a CLI spec: `static` or `steal`.
    pub fn parse(spec: &str) -> Result<SchedMode, String> {
        match spec.trim() {
            "static" => Ok(SchedMode::Static),
            "steal" => Ok(SchedMode::Steal),
            other => Err(format!(
                "unknown scheduler mode '{other}' (expected static or steal)"
            )),
        }
    }

    /// Stable spec string (the inverse of [`SchedMode::parse`]).
    pub fn describe(&self) -> &'static str {
        match self {
            SchedMode::Static => "static",
            SchedMode::Steal => "steal",
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sched_mode_parses_and_round_trips() {
        assert_eq!(SchedMode::parse("static").unwrap(), SchedMode::Static);
        assert_eq!(SchedMode::parse("steal").unwrap(), SchedMode::Steal);
        assert_eq!(SchedMode::parse(" steal ").unwrap(), SchedMode::Steal);
        assert!(SchedMode::parse("bogus").is_err());
        for m in [SchedMode::Static, SchedMode::Steal] {
            assert_eq!(SchedMode::parse(m.describe()).unwrap(), m);
        }
        assert_eq!(SchedMode::default(), SchedMode::Steal);
    }
}
